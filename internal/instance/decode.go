package instance

// decodeUnit scans the unit wire form that MarshalJSON emits in one
// pass: a JSON object holding exactly the keys "kind" (the string
// "unit"), "m" and "unit" (an array of integers), each once, in any
// order, with JSON whitespace between tokens and every number a plain
// decimal integer of at most 18 digits, which cannot overflow int64.
// ok=false means the input lies outside that subset, not that it is
// malformed: the caller decodes it with encoding/json, which gives the
// same Instance as this scan on every input the scan accepts.
func decodeUnit(data []byte) (Instance, bool) {
	s := unitScanner{b: data}
	if !s.consume('{') {
		return Instance{}, false
	}
	var (
		m    int64
		unit []int64
		seen int
		ok   bool
	)
	for {
		key := s.key()
		if key == 0 || seen&key != 0 || !s.consume(':') {
			return Instance{}, false
		}
		seen |= key
		switch key {
		case kindKey:
			ok = s.literal(`"unit"`)
		case mKey:
			m, ok = s.int()
		case unitKey:
			hint := -1
			if seen&mKey != 0 && m <= MaxM {
				hint = int(m)
			}
			unit, ok = s.ints(hint)
		}
		if !ok {
			return Instance{}, false
		}
		if !s.consume(',') {
			break
		}
	}
	if !s.consume('}') {
		return Instance{}, false
	}
	s.space()
	if s.i != len(s.b) || seen != kindKey|mKey|unitKey || int64(int(m)) != m {
		return Instance{}, false
	}
	return Instance{M: int(m), Unit: unit}, true
}

// The keys decodeUnit accepts, as bits of its seen-set.
const (
	kindKey = 1 << iota
	mKey
	unitKey
)

// unitScanner is decodeUnit's cursor over the input.
type unitScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *unitScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether c
// was there.
func (s *unitScanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal skips whitespace and then the exact bytes lit, reporting
// whether they were there.
func (s *unitScanner) literal(lit string) bool {
	s.space()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// key reads an object key spelled exactly "kind", "m" or "unit" and
// returns its bit, or 0 for any other key, including the other
// spellings encoding/json would match (case-folded or escaped).
func (s *unitScanner) key() int {
	switch {
	case s.literal(`"kind"`):
		return kindKey
	case s.literal(`"m"`):
		return mKey
	case s.literal(`"unit"`):
		return unitKey
	}
	return 0
}

// int reads an optionally negative decimal integer without leading
// zeros, exponent or fraction, of at most 18 digits. Whatever follows
// the digits is left for the caller's next token to accept or refuse,
// so "1.5" or "1e3" fails there.
func (s *unitScanner) int() (int64, bool) {
	s.space()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && i-start < 19; i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int64(c)
	}
	s.i = i
	n := i - start
	if n == 0 || n > 18 || (n > 1 && b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// ints reads an array of integers into a non-nil slice (empty for
// "[]", as encoding/json decodes it). hint, the ring size when "m" came
// first, presizes the slice, bounded by what the remaining input could
// hold so a small body cannot demand a large allocation.
func (s *unitScanner) ints(hint int) ([]int64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	room := (len(s.b)-s.i)/2 + 1
	if hint < 0 || hint > room {
		hint = room
	}
	out := make([]int64, 0, hint)
	if s.consume(']') {
		return out, true
	}
	for {
		v, ok := s.int()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.consume(',') {
			continue
		}
		return out, s.consume(']')
	}
}
