package instance

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// referenceUnmarshal decodes with encoding/json alone, as UnmarshalJSON
// does for every input outside the unit form: the behaviour the
// one-pass scan must reproduce on every input.
func referenceUnmarshal(data []byte) (Instance, error) {
	var j jsonInstance
	if err := json.Unmarshal(data, &j); err != nil {
		return Instance{}, err
	}
	var in Instance
	switch j.Kind {
	case "unit":
		in = Instance{M: j.M, Unit: j.Unit}
	case "sized":
		in = Instance{M: j.M, Sized: j.Sized}
	default:
		return Instance{}, invalidf("instance: unknown kind %q", j.Kind)
	}
	return in, in.Validate()
}

// FuzzUnmarshalJSON checks UnmarshalJSON against referenceUnmarshal on
// arbitrary bytes: both must return the same Instance (deep equality, so
// a nil slice differs from an empty one), or both an error, with the
// errors agreeing on ErrInvalid. Everything accepted must also be a
// valid instance that survives a round trip.
func FuzzUnmarshalJSON(f *testing.F) {
	f.Add([]byte(`{"kind":"unit","m":3,"unit":[1,0,2]}`))
	f.Add([]byte(`{"kind":"sized","m":2,"sized":[[5],[1,1]]}`))
	f.Add([]byte(`{"kind":"unit","m":0}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"kind":"unit","m":2,"unit":[-1,0]}`))
	// Edges where the one-pass scan must hand over to encoding/json or
	// agree with it exactly.
	for _, s := range []string{
		// whitespace
		" {\"kind\":\"unit\",\"m\":3,\"unit\":[1,0,2]} ",
		"{\n\t\"kind\" : \"unit\" ,\r\n \"m\" :3, \"unit\" : [ 1 , 0 ,2 ] }",
		"{\"kind\":\"unit\",\"m\":3,\"unit\":[1,0,2]}\f",
		"{\"kind\":\"unit\",\"m\":3,\"unit\":[1,\v0,2]}",
		// reordered, repeated and case-folded keys
		`{"unit":[1,0,2],"m":3,"kind":"unit"}`,
		`{"m":3,"unit":[1,0,2],"kind":"unit"}`,
		`{"kind":"unit","m":3,"m":2,"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[9,9,9],"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1,0,2,4],"unit":[1,0,2]}`,
		`{"kind":"sized","kind":"unit","m":3,"unit":[1,0,2]}`,
		`{"KIND":"unit","M":3,"UNIT":[1,0,2]}`,
		`{"Kind":"unit","m":3,"unit":[1,0,2],"kind":"sized"}`,
		`{"kind":"UNIT","m":3,"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1,0,2],"extra":{"a":[1]}}`,
		`{"kind":"unit","m":3,"unit":[1,0,2],"sized":[[1],[1],[1]]}`,
		`{"kind":"unit","m":3}`,
		`{"kind":"unit","unit":[1,0,2]}`,
		// escaped keys and values
		`{"\u006bind":"unit","m":3,"unit":[1,0,2]}`,
		`{"kind":"\u0075nit","m":3,"unit":[1,0,2]}`,
		`{"ki\nd":"unit","m":3,"unit":[1,0,2]}`,
		// number spellings
		`{"kind":"unit","m":3,"unit":[-0,0,2]}`,
		`{"kind":"unit","m":-0,"unit":[]}`,
		`{"kind":"unit","m":03,"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1,00,2]}`,
		`{"kind":"unit","m":3e0,"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1E0,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1.0,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1,-1,2]}`,
		`{"kind":"unit","m":3,"unit":[1,-,2]}`,
		`{"kind":"unit","m":3,"unit":[+1,0,2]}`,
		`{"kind":"unit","m":3,"unit":["1",0,2]}`,
		// values at 2^63 and at MaxTotalWork
		`{"kind":"unit","m":1,"unit":[9223372036854775807]}`,
		`{"kind":"unit","m":1,"unit":[9223372036854775808]}`,
		`{"kind":"unit","m":1,"unit":[-9223372036854775808]}`,
		`{"kind":"unit","m":1,"unit":[-9223372036854775809]}`,
		`{"kind":"unit","m":9223372036854775808,"unit":[1]}`,
		`{"kind":"unit","m":1,"unit":[999999999999999999]}`,
		`{"kind":"unit","m":1,"unit":[1125899906842624]}`,
		`{"kind":"unit","m":2,"unit":[1125899906842624,1]}`,
		`{"kind":"unit","m":1,"unit":[1125899906842625]}`,
		`{"kind":"unit","m":4194304,"unit":[1]}`,
		// trailing commas, null and other shapes
		`{"kind":"unit","m":3,"unit":[1,0,2],}`,
		`{"kind":"unit","m":3,"unit":[1,0,2,]}`,
		`{"kind":"unit","m":3,"unit":[,1,0,2]}`,
		`{"kind":"unit","m":3,,"unit":[1,0,2]}`,
		`{"kind":"unit","m":0,"unit":[]}`,
		`{"kind":"unit","m":3,"unit":null}`,
		`{"kind":null,"m":3,"unit":[1,0,2]}`,
		`{"kind":"unit","m":null,"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1,0,2]}x`,
		`{"kind":"unit","m":3,"unit":[1,0,2]}{}`,
		`{"kind":"unit","m":3,"unit":[1,0,[2]]}`,
		`{"kind":"unit","m":3 "unit":[1,0,2]}`,
		`{"kind""unit","m":3,"unit":[1,0,2]}`,
		`{"kind":"unit","m":3,"unit":[1 0 2]}`,
		"{\"kind\":\"unit\",\"m\":3,\"unit\":[1,0,2]",
		`{"kind":"unit","m":1,"unit":[1]}`,
		`{}`, `[]`, ``, ` `, `nul`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Instance
		err := in.UnmarshalJSON(data)
		want, wantErr := referenceUnmarshal(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, reference error %v", data, err, wantErr)
		}
		if err != nil {
			if errors.Is(err, ErrInvalid) != errors.Is(wantErr, ErrInvalid) {
				t.Fatalf("%q: errors disagree on ErrInvalid: %v vs reference %v", data, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("%q: UnmarshalJSON = %#v, reference %#v", data, in, want)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid instance %v: %v", in, err)
		}
		out, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("accepted instance does not re-encode: %v", err)
		}
		var back Instance
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-encoded instance does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, in) {
			t.Fatalf("round trip drift: %v -> %v", in, back)
		}
	})
}

// FuzzDecodeInstance attacks the decoder with adversarial wire forms —
// malformed load vectors, negative and non-positive sizes, ring sizes and
// work sums near and past the hard caps — and checks that whatever it
// accepts respects the resource bounds the engines rely on: M within
// [1, MaxM], total work within MaxTotalWork, and every aggregate
// (TotalWork, NumJobs, PMax, Works) computable without panic or overflow.
func FuzzDecodeInstance(f *testing.F) {
	seeds := []string{
		`{"kind":"unit","m":3,"unit":[1,0,2]}`,
		`{"kind":"sized","m":2,"sized":[[5],[1,1]]}`,
		`{"kind":"unit","m":2,"unit":[-1,0]}`,                                    // negative load
		`{"kind":"sized","m":1,"sized":[[0]]}`,                                   // zero-size job
		`{"kind":"sized","m":1,"sized":[[-7]]}`,                                  // negative size
		`{"kind":"unit","m":4194305,"unit":[]}`,                                  // m just past MaxM
		`{"kind":"unit","m":999999999999,"unit":[1]}`,                            // absurd m
		`{"kind":"unit","m":1,"unit":[1125899906842624]}`,                        // work == MaxTotalWork
		`{"kind":"unit","m":1,"unit":[1125899906842625]}`,                        // work > MaxTotalWork
		`{"kind":"unit","m":2,"unit":[9223372036854775807,9223372036854775807]}`, // int64 overflow sum
		`{"kind":"sized","m":2,"sized":[[9223372036854775807],[9223372036854775807]]}`,
		`{"kind":"unit","m":2,"unit":[1,2,3]}`, // length mismatch
		`{"kind":"unit","m":2,"sized":[[1],[1]]}`,
		`{"kind":"wat","m":1,"unit":[1]}`,
		`{"kind":"unit","m":1e3,"unit":[1]}`,
		`[1,2,3]`, `"unit"`, `{}`, `{"kind":`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return
		}
		if in.M < 1 || in.M > MaxM {
			t.Fatalf("decoder accepted ring size %d", in.M)
		}
		total := in.TotalWork()
		if total < 0 || total > MaxTotalWork {
			t.Fatalf("decoder accepted total work %d", total)
		}
		if in.NumJobs() < 0 || in.PMax() < 0 || in.PMax() > total {
			t.Fatalf("inconsistent aggregates for %v", in)
		}
		var sum int64
		for _, w := range in.Works() {
			if w < 0 {
				t.Fatalf("negative per-processor work in %v", in)
			}
			sum += w
		}
		if sum != total {
			t.Fatalf("Works sum %d != TotalWork %d", sum, total)
		}
	})
}

// BenchmarkUnmarshalJSON decodes a 10^5-processor unit ring, the size
// of ringserve's huge requests, with the one-pass scan and with the
// encoding/json reference.
func BenchmarkUnmarshalJSON(b *testing.B) {
	works := make([]int64, 100_000)
	for i := range works {
		works[i] = int64(i * 7919 % 101)
	}
	data, err := json.Marshal(NewUnit(works))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var in Instance
			if err := in.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := referenceUnmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
