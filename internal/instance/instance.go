// Package instance models inputs to the ring scheduling problem.
//
// An instance is an m-processor ring where processor i starts, at time 0,
// with a set of jobs. The paper's basic problem (§2) uses unit-size jobs and
// is represented here by per-processor counts; §4.2 generalizes to arbitrary
// integer job sizes, represented by explicit per-processor size lists.
// Work quantities are int64 so that the paper's largest test cases
// (10^5 jobs on each of many processors) cannot overflow.
package instance

import (
	"encoding/json"
	"errors"
	"fmt"

	"ringsched/internal/ring"
)

// Instance is one input to the scheduling problem. Exactly one of Unit and
// Sized is non-nil:
//
//   - Unit[i] is the number of unit-size jobs starting on processor i;
//   - Sized[i] lists the integer sizes of the jobs starting on processor i.
//
// The zero Instance is invalid; construct with NewUnit or NewSized.
type Instance struct {
	M     int       // number of processors in the ring
	Unit  []int64   // unit-job counts, or nil
	Sized [][]int64 // job sizes, or nil
}

// NewUnit returns a unit-job instance with counts[i] jobs on processor i.
// The slice is copied.
func NewUnit(counts []int64) Instance {
	c := make([]int64, len(counts))
	copy(c, counts)
	return Instance{M: len(counts), Unit: c}
}

// NewSized returns an arbitrary-job-size instance where sizes[i] lists the
// processing times of the jobs starting on processor i. The slices are
// copied.
func NewSized(sizes [][]int64) Instance {
	s := make([][]int64, len(sizes))
	for i, row := range sizes {
		s[i] = make([]int64, len(row))
		copy(s[i], row)
	}
	return Instance{M: len(sizes), Sized: s}
}

// Empty returns a unit instance of m processors with no jobs.
func Empty(m int) Instance { return NewUnit(make([]int64, m)) }

// Hard caps on decoded instances. Untrusted JSON (ringsched -in, fuzzing)
// must not be able to demand absurd allocations or overflow the int64
// work arithmetic every engine and bound relies on.
const (
	// MaxM bounds the ring size; ~4M processors, three orders of
	// magnitude past the paper's largest case (m=1000).
	MaxM = 1 << 22
	// MaxTotalWork bounds n = sum x_i so that any sum of at most MaxM
	// per-processor works, and any makespan bound derived from one,
	// stays far from int64 overflow.
	MaxTotalWork = 1 << 50
)

// ErrInvalid is the sentinel every malformed-instance failure wraps:
// errors.Is(err, ErrInvalid) holds for any error returned by Validate or
// by UnmarshalJSON's structural checks, whatever the specific message.
// The root package re-exports it as ringsched.ErrInvalidInstance.
var ErrInvalid = errors.New("instance: invalid instance")

// invalidError carries a specific diagnosis while matching ErrInvalid
// under errors.Is. A custom type (rather than fmt.Errorf with %w) keeps
// every pre-existing message byte-identical.
type invalidError struct{ msg string }

func (e *invalidError) Error() string { return e.msg }
func (e *invalidError) Unwrap() error { return ErrInvalid }

func invalidf(format string, a ...any) error {
	return &invalidError{msg: fmt.Sprintf(format, a...)}
}

// Validate reports whether the instance is well-formed: positive ring size
// within MaxM, exactly one representation, matching lengths, non-negative
// counts / strictly positive job sizes, and total work within MaxTotalWork
// (checked without overflowing). Every failure wraps ErrInvalid.
func (in Instance) Validate() error {
	if in.M < 1 {
		return invalidf("instance: ring size %d < 1", in.M)
	}
	if in.M > MaxM {
		return invalidf("instance: ring size %d exceeds the maximum %d", in.M, MaxM)
	}
	var total int64
	switch {
	case in.Unit != nil && in.Sized != nil:
		return invalidf("instance: both Unit and Sized set")
	case in.Unit == nil && in.Sized == nil:
		return invalidf("instance: neither Unit nor Sized set")
	case in.Unit != nil:
		if len(in.Unit) != in.M {
			return invalidf("instance: len(Unit)=%d but M=%d", len(in.Unit), in.M)
		}
		for i, x := range in.Unit {
			if x < 0 {
				return invalidf("instance: negative job count %d on processor %d", x, i)
			}
			if x > MaxTotalWork-total {
				return invalidf("instance: total work exceeds the maximum %d at processor %d", int64(MaxTotalWork), i)
			}
			total += x
		}
	default:
		if len(in.Sized) != in.M {
			return invalidf("instance: len(Sized)=%d but M=%d", len(in.Sized), in.M)
		}
		for i, row := range in.Sized {
			for _, p := range row {
				if p <= 0 {
					return invalidf("instance: non-positive job size %d on processor %d", p, i)
				}
				if p > MaxTotalWork-total {
					return invalidf("instance: total work exceeds the maximum %d at processor %d", int64(MaxTotalWork), i)
				}
				total += p
			}
		}
	}
	return nil
}

// IsUnit reports whether all jobs are unit size (count representation).
func (in Instance) IsUnit() bool { return in.Unit != nil }

// Topology returns the ring topology of the instance.
func (in Instance) Topology() ring.Topology { return ring.New(in.M) }

// Work returns x_i, the total processing time of the jobs starting on
// processor i.
func (in Instance) Work(i int) int64 {
	if in.Unit != nil {
		return in.Unit[i]
	}
	var w int64
	for _, p := range in.Sized[i] {
		w += p
	}
	return w
}

// Works returns the per-processor work vector x_0..x_{m-1}.
func (in Instance) Works() []int64 {
	w := make([]int64, in.M)
	for i := range w {
		w[i] = in.Work(i)
	}
	return w
}

// TotalWork returns n = sum_i x_i, the total processing requirement.
func (in Instance) TotalWork() int64 {
	var n int64
	for i := 0; i < in.M; i++ {
		n += in.Work(i)
	}
	return n
}

// NumJobs returns the total number of jobs in the system.
func (in Instance) NumJobs() int64 {
	var n int64
	if in.Unit != nil {
		for _, x := range in.Unit {
			n += x
		}
		return n
	}
	for _, row := range in.Sized {
		n += int64(len(row))
	}
	return n
}

// PMax returns the maximum job size p_max (1 for non-empty unit instances,
// 0 for empty instances).
func (in Instance) PMax() int64 {
	if in.Unit != nil {
		for _, x := range in.Unit {
			if x > 0 {
				return 1
			}
		}
		return 0
	}
	var p int64
	for _, row := range in.Sized {
		for _, q := range row {
			if q > p {
				p = q
			}
		}
	}
	return p
}

// Sizes returns the job sizes on processor i. For a unit instance this
// materializes a slice of ones, so prefer Work for aggregate queries.
func (in Instance) Sizes(i int) []int64 {
	if in.Unit != nil {
		s := make([]int64, in.Unit[i])
		for j := range s {
			s[j] = 1
		}
		return s
	}
	s := make([]int64, len(in.Sized[i]))
	copy(s, in.Sized[i])
	return s
}

// ToSized converts the instance to the explicit-size representation.
// Unit instances become lists of ones; sized instances are deep-copied.
func (in Instance) ToSized() Instance {
	rows := make([][]int64, in.M)
	for i := range rows {
		rows[i] = in.Sizes(i)
	}
	return Instance{M: in.M, Sized: rows}
}

// Clone returns a deep copy.
func (in Instance) Clone() Instance {
	if in.Unit != nil {
		return NewUnit(in.Unit)
	}
	return NewSized(in.Sized)
}

// Scale returns a copy with every job size multiplied by f, used by the
// §4.3 speed/transit-time reductions. It panics on non-positive f or on a
// unit instance (scale via ToSized first).
func (in Instance) Scale(f int64) Instance {
	if f <= 0 {
		panic("instance: non-positive scale factor")
	}
	if in.Unit != nil {
		panic("instance: Scale requires a sized instance; call ToSized first")
	}
	out := in.Clone()
	for _, row := range out.Sized {
		for j := range row {
			row[j] *= f
		}
	}
	return out
}

// String returns a short human-readable summary.
func (in Instance) String() string {
	kind := "unit"
	if !in.IsUnit() {
		kind = "sized"
	}
	return fmt.Sprintf("instance{m=%d %s jobs=%d work=%d}", in.M, kind, in.NumJobs(), in.TotalWork())
}

// jsonInstance is the wire form; Kind disambiguates the representation.
type jsonInstance struct {
	Kind  string    `json:"kind"` // "unit" or "sized"
	M     int       `json:"m"`
	Unit  []int64   `json:"unit,omitempty"`
	Sized [][]int64 `json:"sized,omitempty"`
}

// MarshalJSON encodes the instance with an explicit kind tag. The
// encoding is deterministic — equal instances marshal to identical
// bytes — and round-trips exactly through UnmarshalJSON, so a canonical
// instance (see Canonical) stays canonical across encode/decode and two
// rotated/reflected copies of one instance marshal to identical bytes
// once canonicalized.
func (in Instance) MarshalJSON() ([]byte, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	j := jsonInstance{M: in.M}
	if in.IsUnit() {
		j.Kind = "unit"
		j.Unit = in.Unit
	} else {
		j.Kind = "sized"
		j.Sized = in.Sized
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON. The
// unit form is scanned in one pass (decodeUnit); every other input —
// sized instances, escapes, unknown, repeated or case-folded keys,
// exponents, out-of-range numbers, null — takes the encoding/json path.
// Both paths end in Validate.
func (in *Instance) UnmarshalJSON(data []byte) error {
	if u, ok := decodeUnit(data); ok {
		*in = u
		return in.Validate()
	}
	var j jsonInstance
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	switch j.Kind {
	case "unit":
		*in = Instance{M: j.M, Unit: j.Unit}
	case "sized":
		*in = Instance{M: j.M, Sized: j.Sized}
	default:
		return invalidf("instance: unknown kind %q", j.Kind)
	}
	return in.Validate()
}
