package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ringsched/internal/instance"
	"ringsched/internal/online"
	"ringsched/internal/serve"
	"ringsched/internal/workload"
)

// Every input is generated from the seed before any daemon starts. Item i
// of a stream depends only on (seed, stream, i), so a stream's prefix is
// the same whatever its length, and the traced run can replay exactly the
// requests the timed window sent.

var algorithms = [...]string{"A1", "B1", "C1", "A2", "B2", "C2"}

// request is one pre-generated POST /v1/schedule body with what its
// answer must show.
type request struct {
	body []byte
	alg  string
	// key is a hot request's catalog entry: its body must equal the body
	// that entry got when it was warmed.
	key int
	// fp is the canonical fingerprint a cold or huge answer must carry.
	fp string
	// dense marks a huge request on a Uniform ring (sparse otherwise).
	dense bool
}

// itemRNG is the random source of item i of one input stream.
func itemRNG(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// dihedral returns a random rotation of in, reflected half the time.
func dihedral(in instance.Instance, rng *rand.Rand) instance.Instance {
	out := in.Rotate(rng.Intn(in.M))
	if rng.Intn(2) == 1 {
		out = out.Reflect()
	}
	return out
}

func scheduleBody(in instance.Instance, alg string) []byte {
	b, err := json.Marshal(serve.ScheduleRequest{Instance: in, Algorithm: alg})
	if err != nil {
		panic(err) // generated instances are valid by construction
	}
	return b
}

// parallel calls f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ---- hot: a fixed catalog, warmed once, then cache hits only ----

var hotSizes = [...]int{64, 256, 1024}

// hotSizePattern assigns timed requests to catalog sizes: m=256 gets half
// the traffic and the other sizes a quarter each, so the median request
// sits inside the m=256 latency mode, not on the gap between two sizes.
var hotSizePattern = [...]int{0, 1, 2, 1}

const (
	hotRingsPerSize   = 4
	hotEntriesPerSize = hotRingsPerSize * len(algorithms)
	// hotZipfS skews popularity inside one size class.
	hotZipfS = 1.1
)

type hotInputs struct {
	warm  []request // one per catalog entry; key is the entry's own index
	timed []request // cycled: every timed request is a hit anyway
}

func hotRing(m, shape int, rng *rand.Rand) instance.Instance {
	s := rng.Int63()
	switch shape {
	case 0:
		return workload.PointPlusRandom(m, workload.Big, s)
	case 1:
		return workload.RegionPlusRandom(m, workload.Big, s)
	case 2:
		return workload.Uniform(m, 100, s)
	default:
		return workload.PointPlusRandom(m, workload.Large, s)
	}
}

func genHot(seed int64, n int) hotInputs {
	var h hotInputs
	var rings []instance.Instance // index = size class * hotRingsPerSize + ring
	for c, m := range hotSizes {
		for r := 0; r < hotRingsPerSize; r++ {
			in := hotRing(m, r, itemRNG(seed, "hot-ring", c*hotRingsPerSize+r))
			rings = append(rings, in)
			for _, alg := range algorithms {
				h.warm = append(h.warm, request{body: scheduleBody(in, alg), alg: alg, key: len(h.warm)})
			}
		}
	}
	h.timed = make([]request, n)
	parallel(n, func(i int) {
		rng := itemRNG(seed, "hot", i)
		c := hotSizePattern[i%len(hotSizePattern)]
		key := c*hotEntriesPerSize + int(rand.NewZipf(rng, hotZipfS, 1, uint64(hotEntriesPerSize-1)).Uint64())
		alg := algorithms[key%len(algorithms)]
		h.timed[i] = request{body: scheduleBody(dihedral(rings[key/len(algorithms)], rng), alg), alg: alg, key: key}
	})
	return h
}

// ---- cold: every request a distinct instance ----

// coldSizes is one cycle of cold ring sizes, 4:3:2:1 from m=256 to
// m=2048, interleaved so any stretch of the stream carries about the same
// mix. Cheap A/C runs on small rings hold the median; B1/B2 on the large
// rings (up to ~0.5 s each) make the tail.
var coldSizes = [...]int{256, 512, 1024, 256, 2048, 512, 256, 1024, 512, 256}

// coldShapes are the Table 1 distributions cold rings are drawn from.
var coldShapes = [...]string{"point+random", "region+random", "uniform"}

// coldCycle is the length of the cold stream's repeating structure: the
// ring size changes fastest, then the algorithm, then the shape. Every ten
// consecutive requests then cost about the same, so a window that ends
// mid-cycle does not skew the mix; with the size changing slowest, a
// window ending inside a block of m=2048 runs read 30% slow.
const coldCycle = len(coldSizes) * len(algorithms) * len(coldShapes)

// coldPlan returns the ring size, algorithm and shape of cold item i.
func coldPlan(i int) (m int, alg string, shape int) {
	m = coldSizes[i%len(coldSizes)]
	alg = algorithms[(i/len(coldSizes))%len(algorithms)]
	shape = (i / (len(coldSizes) * len(algorithms))) % len(coldShapes)
	return m, alg, shape
}

func coldRing(i int, rng *rand.Rand) (instance.Instance, string, bool) {
	m, alg, shape := coldPlan(i)
	s := rng.Int63()
	switch shape {
	case 0:
		heavy := workload.Big
		if rng.Intn(2) == 1 {
			heavy = workload.Large
		}
		return workload.PointPlusRandom(m, heavy, s), alg, false
	case 1:
		return workload.RegionPlusRandom(m, workload.Big, s), alg, false
	default:
		return workload.Uniform(m, 100, s), alg, false
	}
}

// ---- huge: distinct m=10^5 rings for the big-ring engine ----

const hugeM = 100_000

// hugeCycle alternates dense Uniform and sparse PointPlusRandom rings. C1
// on two thirds of them keeps the median inside the C1 mode; the A2 runs,
// sparse A2 slowest, make the tail.
var hugeCycle = [...]struct {
	dense bool
	alg   string
}{{true, "C1"}, {false, "C1"}, {true, "A2"}, {false, "C1"}, {true, "C1"}, {false, "A2"}}

func hugeRing(i int, rng *rand.Rand) (instance.Instance, string, bool) {
	c := hugeCycle[i%len(hugeCycle)]
	if c.dense {
		return workload.Uniform(hugeM, 100, rng.Int63()), c.alg, true
	}
	return workload.PointPlusRandom(hugeM, workload.Huge, rng.Int63()), c.alg, false
}

// poolInputs are cold or huge requests: a warm set and a timed pool, all
// with pairwise distinct canonical fingerprints, so none can be a hit.
type poolInputs struct {
	warm, timed []request
}

// genPool draws nWarm warm and nTimed timed requests from ring. A
// fingerprint already taken is redrawn from the item's next attempt, so
// the result stays a function of the seed.
func genPool(seed int64, name string, nWarm, nTimed int, ring func(int, *rand.Rand) (instance.Instance, string, bool)) poolInputs {
	draw := func(stream string, i, attempt int) request {
		rng := itemRNG(seed, fmt.Sprintf("%s/%d", stream, attempt), i)
		in, alg, dense := ring(i, rng)
		in = dihedral(in, rng)
		return request{
			body:  scheduleBody(in, alg),
			alg:   alg,
			fp:    in.Fingerprint().String(),
			dense: dense,
		}
	}
	var p poolInputs
	seen := map[string]bool{}
	fill := func(stream string, n int) []request {
		out := make([]request, n)
		parallel(n, func(i int) { out[i] = draw(stream, i, 0) })
		for i := range out {
			for attempt := 1; seen[out[i].fp]; attempt++ {
				out[i] = draw(stream, i, attempt)
			}
			seen[out[i].fp] = true
		}
		return out
	}
	p.warm = fill(name+"-warm", nWarm)
	p.timed = fill(name, nTimed)
	return p
}

// ---- stream: fixed-length session lifecycles ----

const (
	streamM       = 64
	streamWaves   = 16
	streamBatches = 4
)

// lifecycle is one session: create m=64, streamWaves appends of
// streamBatches batches each, delete. Release times are placed at or
// after the engine clock each wave will find, which a local engine works
// out while the inputs are generated.
type lifecycle struct {
	waves    [][]byte // SessionArrivalsRequest bodies
	waveWork []int64  // jobs appended by each wave
	// final is the one-shot online.Run over every batch: the deleted
	// session's terminal snapshot must match it.
	final online.Result
	total int64
}

var sessionCreateBody = []byte(fmt.Sprintf(`{"m":%d}`, streamM))

func genLifecycle(rng *rand.Rand) lifecycle {
	eng, err := online.NewEngine(streamM, online.Params{})
	if err != nil {
		panic(err)
	}
	var lc lifecycle
	var all []online.Batch
	for w := 0; w < streamWaves; w++ {
		wave := make([]serve.ArrivalBatch, streamBatches)
		batches := make([]online.Batch, streamBatches)
		var work int64
		for b := range wave {
			t, p, c := eng.Now()+rng.Int63n(4), rng.Intn(streamM), 8+rng.Int63n(57)
			wave[b] = serve.ArrivalBatch{T: t, Proc: p, Count: c}
			batches[b] = online.Batch{Time: t, Proc: p, Count: c}
			work += c
		}
		if err := eng.Append(batches...); err != nil {
			panic(err)
		}
		if err := eng.StepQuiescent(nil); err != nil {
			panic(err)
		}
		body, err := json.Marshal(serve.SessionArrivalsRequest{Arrivals: wave})
		if err != nil {
			panic(err)
		}
		lc.waves = append(lc.waves, body)
		lc.waveWork = append(lc.waveWork, work)
		lc.total += work
		all = append(all, batches...)
	}
	oin, err := online.NewInstance(streamM, all)
	if err != nil {
		panic(err)
	}
	if lc.final, err = online.Run(oin, online.Params{}); err != nil {
		panic(err)
	}
	return lc
}

type streamInputs struct {
	warm, timed []lifecycle
}

func genStream(seed int64, nWarm, nTimed int) streamInputs {
	gen := func(stream string, n int) []lifecycle {
		out := make([]lifecycle, n)
		parallel(n, func(i int) { out[i] = genLifecycle(itemRNG(seed, stream, i)) })
		return out
	}
	return streamInputs{warm: gen("stream-warm", nWarm), timed: gen("stream", nTimed)}
}
