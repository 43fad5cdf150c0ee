package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/sgd"
)

// benchStores are the two live read paths the serving benches compare at
// equal training load; the crossover assertion (assertReadFrontWins) enforces
// the readfront claim against the leased baseline.
var benchStores = []string{StoreLeased, StoreReadFront}

// startLiveRun launches the shared serving workload: a tiny MLP (so the
// forward pass does not drown the read path being measured) trained by a
// static 64-chain Leashed run — 2 workers publishing flat-out across 64
// chains is the regime where the leased read pays 64 per-chain
// acquire/validate round-trips against hot publisher cache lines per batch,
// while the readfront read stays one atomic pointer load.
func startLiveRun(b *testing.B) (*nn.Network, *sgd.Running) {
	b.Helper()
	ds := data.GenerateSynthetic(data.SyntheticConfig{
		Samples: 256, H: 12, W: 12, Classes: 10, Seed: 7,
		Noise: 0.03, Shift: 1, Blur: 1.0,
	})
	net := nn.NewMLP(ds.Dim(), []int{16}, ds.Classes)
	run, err := sgd.Start(sgd.Config{
		Algo:        sgd.Leashed,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   8,
		Persistence: sgd.PersistenceInf,
		Shards:      64,
		EpsilonFrac: 0, // profile run: only the bench window ends it
		MaxTime:     10 * time.Minute,
		EvalEvery:   50 * time.Millisecond,
		Seed:        7,
	}, net, ds)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		run.Stop()
		run.Wait()
	})
	return net, run
}

func liveServer(b *testing.B, store string, cfg Config) (*nn.Network, *Server) {
	b.Helper()
	net, run := startLiveRun(b)
	cfg.Store = store
	s, err := New(net, run, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return net, s
}

// storeCmp records the best measured serving numbers per store across the
// bench binary's runs; BenchmarkServeReadContention's parent asserts the
// leased-vs-readfront comparison from it (same shape as the sparse-vs-dense
// crossover assertion in the root bench file).
var storeCmp = struct {
	sync.Mutex
	p99  map[string]float64 // single-client p99, µs (min across runs)
	qps  map[string]float64 // 8-client batched throughput, req/s (max)
	qps8 map[string]float64 // 8-client unbatched read throughput, req/s (max)
	n    int                // largest per-cell b.N observed (assertion gate)
}{
	p99:  map[string]float64{},
	qps:  map[string]float64{},
	qps8: map[string]float64{},
}

func recordMin(m map[string]float64, k string, v float64) {
	if prev, ok := m[k]; !ok || v < prev {
		m[k] = v
	}
}

func recordMax(m map[string]float64, k string, v float64) {
	if prev, ok := m[k]; !ok || v > prev {
		m[k] = v
	}
}

// BenchmarkServePredictLatency is the single-client floor at equal live
// training load: sequential predicts with MaxBatch 1, so every request pays
// one parameter read + one B=1 forward — leased vs readfront.
func BenchmarkServePredictLatency(b *testing.B) {
	for _, store := range benchStores {
		b.Run("store="+store, func(b *testing.B) {
			net, s := liveServer(b, store, Config{MaxBatch: 1})
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = float64(i%17) / 17
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Predict(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			p99 := float64(st.P99) / float64(time.Microsecond)
			b.ReportMetric(float64(st.P50)/float64(time.Microsecond), "p50-us")
			b.ReportMetric(p99, "p99-us")
			storeCmp.Lock()
			recordMin(storeCmp.p99, store, p99)
			if b.N > storeCmp.n {
				storeCmp.n = b.N
			}
			storeCmp.Unlock()
		})
	}
}

// BenchmarkServeThroughputBatched is the batching path under concurrent
// load at equal live training load: a fixed pool of 8 closed-loop clients
// (fixed, not GOMAXPROCS, so the batch sizes are comparable across machines)
// splits b.N requests, and the dispatcher serves whatever queued during each
// forward pass in one shared ForwardBatch call — leased vs readfront.
func BenchmarkServeThroughputBatched(b *testing.B) {
	for _, store := range benchStores {
		b.Run("store="+store, func(b *testing.B) {
			net, s := liveServer(b, store, Config{MaxBatch: 32})
			const clients = 8
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				n := b.N / clients
				if c < b.N%clients {
					n++
				}
				wg.Add(1)
				go func(c, n int) {
					defer wg.Done()
					x := make([]float64, net.InDim())
					for i := range x {
						x[i] = float64((c+i)%13) / 13
					}
					for i := 0; i < n; i++ {
						if _, err := s.Predict(x); err != nil {
							b.Error(err)
							return
						}
					}
				}(c, n)
			}
			wg.Wait()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(st.MeanBatch, "batch")
			if el := b.Elapsed(); el > 0 {
				qps := float64(st.Requests) / el.Seconds()
				b.ReportMetric(qps, "req/s")
				storeCmp.Lock()
				recordMax(storeCmp.qps, store, qps)
				if b.N > storeCmp.n {
					storeCmp.n = b.N
				}
				storeCmp.Unlock()
			}
		})
	}
}

// BenchmarkServeReadContention is the readers≫writers regime: 8 and 16
// closed-loop clients with batching disabled (MaxBatch 1), so every request
// is one parameter read racing 2 training workers' publishes across 64
// chains. This is where the store choice dominates: the leased path's
// per-chain reader registrations ping-pong the publishers' cache lines, the
// readfront path reads one amortized snapshot the publishers never touch.
// The parent asserts the readfront-vs-leased comparison collected across all
// serving benches.
func BenchmarkServeReadContention(b *testing.B) {
	for _, clients := range []int{8, 16} {
		for _, store := range benchStores {
			b.Run(fmt.Sprintf("clients=%d/store=%s", clients, store), func(b *testing.B) {
				net, s := liveServer(b, store, Config{MaxBatch: 1})
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					n := b.N / clients
					if c < b.N%clients {
						n++
					}
					wg.Add(1)
					go func(c, n int) {
						defer wg.Done()
						x := make([]float64, net.InDim())
						for i := range x {
							x[i] = float64((c+i)%11) / 11
						}
						for i := 0; i < n; i++ {
							if _, err := s.Predict(x); err != nil {
								b.Error(err)
								return
							}
						}
					}(c, n)
				}
				wg.Wait()
				b.StopTimer()
				st := s.Stats()
				if el := b.Elapsed(); el > 0 {
					qps := float64(st.Requests) / el.Seconds()
					b.ReportMetric(qps, "req/s")
					if clients == 8 {
						storeCmp.Lock()
						recordMax(storeCmp.qps8, store, qps)
						if b.N > storeCmp.n {
							storeCmp.n = b.N
						}
						storeCmp.Unlock()
					}
				}
				if st.Snapshot > 0 {
					b.ReportMetric(float64(st.MaxStalenessAge)/float64(time.Millisecond), "max-stale-ms")
				}
			})
		}
	}
	assertReadFrontWins(b)
}

// assertReadFrontWins enforces the tentpole claim: at equal training load the
// readfront source improves served-read p99 and/or 8-client throughput over
// the leased source. Each metric family with both cells measured casts a
// vote; the benchmark fails only when at least one family is complete and
// readfront wins none. Gated on sample size so a -benchtime=1x smoke run
// doesn't flake on startup noise (CI's serving pass runs 2000x).
func assertReadFrontWins(b *testing.B) {
	storeCmp.Lock()
	defer storeCmp.Unlock()
	if storeCmp.n < 512 {
		return
	}
	families := 0
	wins := 0
	if ls, ok := storeCmp.p99[StoreLeased]; ok {
		if rf, ok := storeCmp.p99[StoreReadFront]; ok {
			families++
			if rf < ls {
				wins++
			}
		}
	}
	for _, m := range []map[string]float64{storeCmp.qps, storeCmp.qps8} {
		if ls, ok := m[StoreLeased]; ok {
			if rf, ok := m[StoreReadFront]; ok {
				families++
				if rf > ls {
					wins++
				}
			}
		}
	}
	if families > 0 {
		b.ReportMetric(float64(wins)/float64(families), "readfront-wins-frac")
	}
	if families > 0 && wins == 0 {
		b.Errorf("readfront improved neither p99 nor throughput over leased at equal training load: p99 %v, batched qps %v, 8-client qps %v",
			storeCmp.p99, storeCmp.qps, storeCmp.qps8)
	}
}

// BenchmarkServeStaticReadAllocs asserts the static-source read path is
// allocation-free in the dispatcher's steady state: StaticSource.ReadParams
// must stage through the caller's pre-sized scratch (not allocate its own
// copy, and not hand out the checkpoint slice). The name substring-matches
// benchreport's alloc guard, so CI fails on any allocation.
func BenchmarkServeStaticReadAllocs(b *testing.B) {
	net := nn.NewSmallMLP(28*28, 10)
	params := make([]float64, net.ParamCount())
	net.Init(params, rng.New(9), nn.DefaultSigma)
	src := StaticSource(params)
	scratch := make([]float64, src.Dim()) // the dispatcher's pre-sized buffer
	var sink float64
	read := func() {
		src.ReadParams(nil, scratch, func(pv paramvec.View) {
			sink += pv.At(0)
		})
	}
	read() // warm-up outside the measurement
	allocs := testing.AllocsPerRun(50, read)
	_ = sink
	b.ReportMetric(allocs, "allocs/op")
	if allocs != 0 {
		b.Errorf("static source read path allocated %.1f times per op, want 0", allocs)
	}
}
