package instance

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
)

// The scheduling model of §2 is invariant under relabeling processor 0
// and under flipping the ring's orientation: rotating or reflecting an
// instance changes nothing about its optimal schedule length, the
// makespan any of the paper's algorithms achieves, or any other
// aggregate quantity — only which index carries which load. Canonical
// and Fingerprint exploit that symmetry: every one of the up-to-2m
// dihedral copies of an instance maps to the same canonical form and
// the same fingerprint, which is what makes result caching by
// canonicalization (internal/serve) sound.

// Rotate returns a copy of the instance with every processor's jobs
// shifted k positions clockwise: processor (i+k) mod m of the result
// holds what processor i held. Negative k rotates counter-clockwise.
func (in Instance) Rotate(k int) Instance {
	m := in.M
	if m == 0 {
		return in.Clone()
	}
	k = ((k % m) + m) % m
	out := in.Clone()
	if in.Unit != nil {
		for i, x := range in.Unit {
			out.Unit[(i+k)%m] = x
		}
		return out
	}
	for i := range in.Sized {
		out.Sized[(i+k)%m] = cloneRow(in.Sized[i])
	}
	return out
}

// Reflect returns the mirror image of the instance: processor i's jobs
// move to processor (m-i) mod m, reversing the ring's orientation.
func (in Instance) Reflect() Instance {
	m := in.M
	out := in.Clone()
	if m == 0 {
		return out
	}
	if in.Unit != nil {
		for i, x := range in.Unit {
			out.Unit[(m-i)%m] = x
		}
		return out
	}
	for i := range in.Sized {
		out.Sized[(m-i)%m] = cloneRow(in.Sized[i])
	}
	return out
}

// cloneRow copies a job-size row, preserving emptiness as a non-nil
// empty slice (the form NewSized produces), so deep equality between
// constructed and transformed instances behaves predictably.
func cloneRow(r []int64) []int64 {
	out := make([]int64, len(r))
	copy(out, r)
	return out
}

// Canonical returns the rotation/reflection-minimal representative of
// the instance's dihedral equivalence class: the lexicographically
// smallest sequence of per-processor job multisets over all 2m
// rotations and reflections, with each processor's job list sorted
// ascending (job order within a processor is immaterial to the model).
// Two instances are equivalent under relabeling iff their Canonical
// forms are deeply equal, and Canonical is idempotent. The
// representation kind (unit vs sized) is preserved.
func (in Instance) Canonical() Instance {
	m := in.M
	if m <= 1 {
		out := in.Clone()
		if out.Sized != nil {
			for i := range out.Sized {
				slices.Sort(out.Sized[i])
			}
		}
		return out
	}
	if in.Unit != nil {
		return Instance{M: m, Unit: gather(in.Unit, leastReading(in.Unit))}
	}
	rows := make([][]int64, m)
	for i, row := range in.Sized {
		rows[i] = cloneRow(row)
		slices.Sort(rows[i])
	}
	return Instance{M: m, Sized: gather(rows, leastReading(rowRanks(rows)))}
}

// rowRanks maps every row to its rank among the distinct rows in
// lexicographic order. Ranks order like the rows they stand for, so the
// least reading of the ranks is the least reading of the rows, found by
// comparing integers instead of rows.
func rowRanks(rows [][]int64) []int64 {
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(rows[a], rows[b]) })
	ranks := make([]int64, len(rows))
	for i := 1; i < len(order); i++ {
		ranks[order[i]] = ranks[order[i-1]]
		if !slices.Equal(rows[order[i]], rows[order[i-1]]) {
			ranks[order[i]]++
		}
	}
	return ranks
}

// reading is one walk around a ring of n elements that starts at ring
// index start: forward visits start, start+1, ... and backward visits
// the reversed ring (n-1-start, n-2-start, ...), both wrapping mod n.
// It lets the least-rotation scan and the duel between the two
// directions read any rotation of the ring or of its reversal in
// place.
type reading struct {
	n, start int
	rev      bool
}

// index maps position p of the reading, 0 <= p < 2n-start, to its ring
// index with one conditional subtraction instead of a division.
func (r reading) index(p int) int {
	p += r.start
	if p >= r.n {
		p -= r.n
	}
	if r.rev {
		return r.n - 1 - p
	}
	return p
}

// leastReading returns the reading that spells the lexicographically
// least of the ring's 2n dihedral copies: the least rotation read
// forward or the least rotation read backward, whichever is smaller.
// The two are compared in place, so neither the reversal nor the losing
// rotation is ever copied.
func leastReading(s []int64) reading {
	n := len(s)
	if n == 0 {
		return reading{}
	}
	least := slices.Min(s)
	fwd := reading{n: n, start: leastRotation(s, least, false)}
	bwd := reading{n: n, start: leastRotation(s, least, true), rev: true}
	for p := 0; p < n; p++ {
		if a, b := s[bwd.index(p)], s[fwd.index(p)]; a != b {
			if a < b {
				return bwd
			}
			break
		}
	}
	return fwd
}

// gather copies the ring s in the order r reads it: the one copy of the
// ring a canonicalization makes.
func gather[T any](s []T, r reading) []T {
	out := make([]T, len(s))
	if !r.rev {
		k := copy(out, s[r.start:])
		copy(out[k:], s[:r.start])
		return out
	}
	for p := range out {
		out[p] = s[r.index(p)]
	}
	return out
}

// leastRotation returns the start of the lexicographically least
// rotation of the ring s read forward, or read backward when rev is
// set, via the classic O(n) two-candidate scan (Booth-style): i and j
// are the two best candidate starts, k the length of their common
// prefix; a mismatch eliminates k+1 starts at once. A least rotation
// begins with least, the ring's least element, so the scan skips every
// other start without comparing rotations.
func leastRotation(s []int64, least int64, rev bool) int {
	n := len(s)
	r := reading{n: n, rev: rev}
	// next returns the first start at or after p that holds the least
	// element, or a value >= n when there is none.
	next := func(p int) int {
		for p < n && s[r.index(p)] != least {
			p++
		}
		return p
	}
	i := next(0)
	j := next(i + 1)
	k := 0
	for i < n && j < n && k < n {
		a, b := s[r.index(i+k)], s[r.index(j+k)]
		if a == b {
			k++
			continue
		}
		if a > b {
			i = next(i + k + 1)
		} else {
			j = next(j + k + 1)
		}
		if i == j {
			j = next(j + 1)
		}
		k = 0
	}
	return min(i, j)
}

// Fingerprint is a stable content hash of an instance's canonical form:
// SHA-256 over a self-delimiting binary encoding, with Hash64 (the
// hash's first 8 bytes) as a compact shard/map key. Rotating or
// reflecting an instance never changes its Fingerprint; any other
// change (different loads, different job sizes, unit vs sized
// representation) does, up to SHA-256 collision resistance.
type Fingerprint struct {
	Hash64 uint64
	SHA    [sha256.Size]byte
}

// String renders the fingerprint as "<hash64>-<sha256>" in hex. It is
// the canonical cache-key form used by internal/serve.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x-%x", f.Hash64, f.SHA[:])
}

// fingerprintVersion tags the encoding; bump on incompatible changes.
const fingerprintVersion = "ringsched.instance.fp/v1"

// Fingerprint canonicalizes the instance and hashes the result. Equal
// fingerprints identify instances that are equal up to rotation and
// reflection of the ring.
func (in Instance) Fingerprint() Fingerprint {
	_, f := in.CanonicalFingerprint()
	return f
}

// CanonicalFingerprint returns Canonical() and Fingerprint() from one
// canonicalization, for callers that need both.
func (in Instance) CanonicalFingerprint() (Instance, Fingerprint) {
	c := in.Canonical()
	return c, c.hash()
}

// hash fingerprints an instance already in canonical form: SHA-256
// over the version tag, a kind byte and the varints of m and the loads
// (unit) or of m and every row's length and sizes (sized), collected in
// one buffer so the digest takes a single write.
func (in Instance) hash() Fingerprint {
	b := make([]byte, 0, len(fingerprintVersion)+1+binary.MaxVarintLen64+2*in.M)
	b = append(b, fingerprintVersion...)
	if in.Unit != nil {
		b = append(b, 'u')
		b = binary.AppendVarint(b, int64(in.M))
		for _, x := range in.Unit {
			b = binary.AppendVarint(b, x)
		}
	} else {
		b = append(b, 's')
		b = binary.AppendVarint(b, int64(in.M))
		for _, row := range in.Sized {
			b = binary.AppendVarint(b, int64(len(row)))
			for _, p := range row {
				b = binary.AppendVarint(b, p)
			}
		}
	}
	f := Fingerprint{SHA: sha256.Sum256(b)}
	f.Hash64 = binary.BigEndian.Uint64(f.SHA[:8])
	return f
}
