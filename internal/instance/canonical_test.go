package instance

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestRotateReflect(t *testing.T) {
	in := NewUnit([]int64{1, 2, 3, 4})
	if got := in.Rotate(1).Unit; !reflect.DeepEqual(got, []int64{4, 1, 2, 3}) {
		t.Errorf("Rotate(1) = %v", got)
	}
	if got := in.Rotate(-1).Unit; !reflect.DeepEqual(got, []int64{2, 3, 4, 1}) {
		t.Errorf("Rotate(-1) = %v", got)
	}
	if got := in.Rotate(5).Unit; !reflect.DeepEqual(got, in.Rotate(1).Unit) {
		t.Errorf("Rotate(5) = %v, want Rotate(1)", got)
	}
	// Reflect fixes processor 0 and reverses orientation.
	if got := in.Reflect().Unit; !reflect.DeepEqual(got, []int64{1, 4, 3, 2}) {
		t.Errorf("Reflect = %v", got)
	}
	if got := in.Reflect().Reflect().Unit; !reflect.DeepEqual(got, in.Unit) {
		t.Errorf("Reflect∘Reflect = %v", got)
	}
	s := NewSized([][]int64{{5}, {1, 2}, {}})
	if got := s.Rotate(1).Sized; !reflect.DeepEqual(got, [][]int64{{}, {5}, {1, 2}}) {
		t.Errorf("sized Rotate(1) = %v", got)
	}
}

func TestCanonicalDihedralInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(9)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(4))
		}
		in := NewUnit(works)
		want := in.Canonical()
		for k := 0; k < m; k++ {
			for _, refl := range []bool{false, true} {
				v := in.Rotate(k)
				if refl {
					v = v.Reflect()
				}
				got := v.Canonical()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("m=%d works=%v rot=%d refl=%v: canonical %v != %v",
						m, works, k, refl, got.Unit, want.Unit)
				}
			}
		}
		// Idempotence and minimality: the canonical form is its own
		// canonical form and no dihedral copy is lexicographically smaller.
		if again := want.Canonical(); !reflect.DeepEqual(again, want) {
			t.Fatalf("canonical not idempotent: %v -> %v", want.Unit, again.Unit)
		}
	}
}

func TestCanonicalIsLexMin(t *testing.T) {
	in := NewUnit([]int64{3, 0, 1, 0})
	c := in.Canonical()
	want := []int64{0, 1, 0, 3} // least rotation, checked by hand
	less := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	for k := 0; k < in.M; k++ {
		for _, v := range []Instance{in.Rotate(k), in.Rotate(k).Reflect()} {
			if less(v.Unit, c.Unit) {
				t.Errorf("dihedral copy %v smaller than canonical %v", v.Unit, c.Unit)
			}
		}
	}
	if !reflect.DeepEqual(c.Unit, want) {
		t.Errorf("canonical = %v, want %v", c.Unit, want)
	}
}

func TestCanonicalSized(t *testing.T) {
	in := NewSized([][]int64{{7, 2}, {}, {1}})
	c := in.Canonical()
	// Rows sorted, dihedral-minimal row sequence: [] < [1] < [2 7].
	if !reflect.DeepEqual(c.Sized, [][]int64{{}, {1}, {2, 7}}) {
		t.Errorf("canonical sized = %v", c.Sized)
	}
	// All 6 dihedral copies agree.
	for k := 0; k < 3; k++ {
		for _, v := range []Instance{in.Rotate(k), in.Rotate(k).Reflect()} {
			if got := v.Canonical(); !reflect.DeepEqual(got, c) {
				t.Errorf("copy rot=%d canonical = %v", k, got.Sized)
			}
		}
	}
	if c.IsUnit() {
		t.Error("canonical changed representation kind")
	}
}

func TestFingerprintInvariance(t *testing.T) {
	in := NewUnit([]int64{100, 0, 0, 25, 0, 7})
	f := in.Fingerprint()
	for k := 0; k < in.M; k++ {
		for _, v := range []Instance{in.Rotate(k), in.Rotate(k).Reflect()} {
			if g := v.Fingerprint(); g != f {
				t.Fatalf("fingerprint changed under rot=%d: %s != %s", k, g, f)
			}
		}
	}
	// Distinct instances get distinct fingerprints.
	if g := NewUnit([]int64{100, 0, 0, 25, 0, 8}).Fingerprint(); g == f {
		t.Error("distinct instances share a fingerprint")
	}
	// Unit and its sized equivalent are deliberately distinct: they run
	// different code paths and the §4.2 model treats them differently.
	if g := in.ToSized().Fingerprint(); g == f {
		t.Error("unit and sized representations share a fingerprint")
	}
	if s := f.String(); len(s) != 16+1+64 {
		t.Errorf("fingerprint string %q has length %d", s, len(s))
	}
}

// TestFingerprintGolden pins literal fingerprints. Every cache key and
// the wire "fingerprint" field derive from them, so a change here splits
// one instance across two keys on a cluster of mixed versions.
func TestFingerprintGolden(t *testing.T) {
	m64 := make([]int64, 64)
	for i := range m64 {
		m64[i] = int64(i*i*7%11) * int64(i%3)
	}
	cases := []struct {
		name string
		in   Instance
		want string
	}{
		{"m=1", NewUnit([]int64{7}),
			"46d825374e08abe0-46d825374e08abe035950e2df885a30f4097cd7dd921efe8e1229f0b4668d221"},
		{"all equal", NewUnit([]int64{3, 3, 3, 3, 3}),
			"457726bb8a6b6fc4-457726bb8a6b6fc45d5048c6fa0a871e917f2c5921d103247b79851931748a0b"},
		{"empty", NewUnit([]int64{0, 0, 0, 0}),
			"b71610a7f2bd1831-b71610a7f2bd18312fd1fd3e3afbce932508d814b4ae2f7005d39df00f196704"},
		// Period 3: three rotations tie for least.
		{"periodic", NewUnit([]int64{2, 0, 1, 2, 0, 1, 2, 0, 1}),
			"f67d5b4d971c29bd-f67d5b4d971c29bda00b183151fa22698e25f57842a217447219dd284e824306"},
		// Least forward rotation 0 1 3 0 2 1; the reflection's 0 1 2 0 3 1 wins.
		{"reflection wins", NewUnit([]int64{0, 2, 1, 0, 1, 3}),
			"cd2787e3d55d1de5-cd2787e3d55d1de5308bacceec88376cdb4d40671eb6d5e8010c0de8653f9202"},
		{"m=64", NewUnit(m64),
			"6e5df01f920aabdd-6e5df01f920aabdda3b9f4b46d82086925cbe52e16d985d6a0081ba3236e289b"},
		// Rows sort to [1 4] [] [2] [1 1]; the reflection wins here too.
		{"sized", NewSized([][]int64{{4, 1}, {}, {2}, {1, 1}}),
			"7472287e7cf71a1a-7472287e7cf71a1a0ace4fb55e3e9776e28cc13f6898d14c4ede9762a2c63ac5"},
		{"sized m=1", NewSized([][]int64{{3, 1, 2}}),
			"c1f7acf07fad3fe7-c1f7acf07fad3fe798bd95e814bfcb5c25c9a30af6242fa34c9f2b78ae4381dd"},
	}
	for _, c := range cases {
		for k := 0; k < c.in.M; k++ {
			for _, v := range []Instance{c.in.Rotate(k), c.in.Rotate(k).Reflect()} {
				if got := v.Fingerprint().String(); got != c.want {
					t.Fatalf("%s rot=%d: fingerprint %s, want %s", c.name, k, got, c.want)
				}
				if _, fp := v.CanonicalFingerprint(); fp.String() != c.want {
					t.Fatalf("%s rot=%d: CanonicalFingerprint %s, want %s", c.name, k, fp, c.want)
				}
			}
		}
	}
}

// bruteCanonical is the definition Canonical implements: sort every
// row, then take the least of all 2m rotations and reflections.
func bruteCanonical(in Instance) Instance {
	sorted := in.Clone()
	for _, row := range sorted.Sized {
		slices.Sort(row)
	}
	less := func(a, b Instance) bool {
		if a.Unit != nil {
			return slices.Compare(a.Unit, b.Unit) < 0
		}
		return slices.CompareFunc(a.Sized, b.Sized, slices.Compare[[]int64]) < 0
	}
	best := sorted
	for k := 0; k < in.M; k++ {
		for _, v := range []Instance{sorted.Rotate(k), sorted.Rotate(k).Reflect()} {
			if less(v, best) {
				best = v
			}
		}
	}
	return best
}

// TestCanonicalFingerprintMatches checks CanonicalFingerprint against
// Canonical and Fingerprint, and Canonical against bruteCanonical, on
// random dihedral copies of random unit and sized rings.
func TestCanonicalFingerprintMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(12)
		var in Instance
		if trial%3 == 2 {
			rows := make([][]int64, m)
			for i := range rows {
				rows[i] = make([]int64, rng.Intn(3))
				for j := range rows[i] {
					rows[i][j] = 1 + int64(rng.Intn(3))
				}
			}
			in = NewSized(rows)
		} else {
			works := make([]int64, m)
			for i := range works {
				works[i] = int64(rng.Intn(3))
			}
			in = NewUnit(works)
		}
		want := bruteCanonical(in)
		for copies := 0; copies < 4; copies++ {
			v := in.Rotate(rng.Intn(m))
			if rng.Intn(2) == 1 {
				v = v.Reflect()
			}
			orig := v.Clone()
			c, fp := v.CanonicalFingerprint()
			if !reflect.DeepEqual(c, v.Canonical()) || fp != v.Fingerprint() {
				t.Fatalf("%v: CanonicalFingerprint = (%v, %s), want (%v, %s)", v, c, fp, v.Canonical(), v.Fingerprint())
			}
			if !reflect.DeepEqual(c, want) {
				t.Fatalf("%v: Canonical = %v %v, brute force %v %v", v, c.Unit, c.Sized, want.Unit, want.Sized)
			}
			if !reflect.DeepEqual(v, orig) {
				t.Fatalf("canonicalization mutated its receiver: %v -> %v", orig, v)
			}
		}
	}
}

func TestCanonicalJSONRoundTripDeterministic(t *testing.T) {
	in := NewUnit([]int64{0, 5, 0, 0, 2})
	c := in.Canonical()
	b1, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) || !reflect.DeepEqual(back.Canonical(), back) {
		t.Errorf("canonical form not preserved: %v -> %v", c, back)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("re-encoding differs: %s vs %s", b1, b2)
	}
	// Rotated copies of one instance marshal identically once canonical.
	r, err := json.Marshal(in.Rotate(3).Reflect().Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, r) {
		t.Errorf("rotated copy canonical encoding differs: %s vs %s", b1, r)
	}
}

func TestErrInvalidSentinel(t *testing.T) {
	cases := []Instance{
		{},                              // neither representation
		{M: 0, Unit: []int64{}},         // m < 1
		{M: 2, Unit: []int64{1}},        // length mismatch
		{M: 1, Unit: []int64{-1}},       // negative count
		{M: 1, Sized: [][]int64{{0}}},   // non-positive size
		{M: MaxM + 1, Unit: []int64{1}}, // oversized ring
	}
	for _, in := range cases {
		err := in.Validate()
		if err == nil {
			t.Errorf("%+v validated", in)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%v does not wrap ErrInvalid", err)
		}
	}
	var in Instance
	if err := in.UnmarshalJSON([]byte(`{"kind":"junk","m":1}`)); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown kind error %v does not wrap ErrInvalid", err)
	}
	if err := NewUnit([]int64{3}).Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func BenchmarkCanonical(b *testing.B) {
	works := make([]int64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range works {
		works[i] = int64(rng.Intn(100))
	}
	in := NewUnit(works)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = in.Fingerprint()
	}
}
