package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leashedsgd/internal/metrics"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/sgd"
	"leashedsgd/internal/tensor"
)

func staticFixture(t testing.TB) (*nn.Network, StaticSource) {
	t.Helper()
	net := nn.NewMLP(16, []int{12}, 4)
	params := make([]float64, net.ParamCount())
	net.Init(params, rng.New(9), nn.DefaultSigma)
	return net, StaticSource(params)
}

func checkPrediction(t *testing.T, net *nn.Network, p Prediction) {
	t.Helper()
	if len(p.Probs) != net.OutDim() {
		t.Fatalf("prediction has %d probs, want %d", len(p.Probs), net.OutDim())
	}
	sum := 0.0
	for i, v := range p.Probs {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("probs[%d] = %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum(probs) = %v, want 1", sum)
	}
	if p.Class < 0 || p.Class >= net.OutDim() {
		t.Fatalf("class = %d out of range", p.Class)
	}
	if p.Batch < 1 {
		t.Fatalf("batch = %d", p.Batch)
	}
}

func TestPredictStaticSource(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := make([]float64, net.InDim())
	for i := range x {
		x[i] = float64(i) / 16
	}
	p, err := s.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	checkPrediction(t, net, p)
	if !p.Consistent || !p.Final {
		t.Fatalf("static prediction meta = %+v, want Consistent+Final", p)
	}
	// Same input, same parameters: deterministic.
	p2, err := s.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Class != p.Class {
		t.Fatalf("same input classified %d then %d", p.Class, p2.Class)
	}

	// Dimension mismatch is an error, not a panic.
	if _, err := s.Predict(make([]float64, 3)); err == nil {
		t.Fatal("short input did not error")
	}

	st := s.Stats()
	if st.Requests != 2 || st.Batches != 2 {
		t.Fatalf("stats = %+v, want 2 requests in 2 batches", st)
	}
}

// The dispatcher drains greedily: while it is held inside one read, 40 more
// requests queue up; once released it serves them as batches of 16, 16 and
// 8 (MaxBatch 16), and every request gets its own correct answer.
func TestBatcherCoalesces(t *testing.T) {
	net, static := staticFixture(t)
	src := &gatedSource{StaticSource: static, entered: make(chan struct{}, 1), release: make(chan struct{})}
	s, err := New(net, src, Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const queued = 40
	xs := make([][]float64, queued+1)
	for i := range xs {
		xs[i] = make([]float64, net.InDim())
		for j := range xs[i] {
			xs[i][j] = float64((i*7+j)%19)/19 - 0.5
		}
	}
	preds := make([]Prediction, len(xs))
	var wg sync.WaitGroup
	predict := func(i int) {
		defer wg.Done()
		p, err := s.Predict(xs[i])
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		preds[i] = p
	}
	wg.Add(1)
	go predict(0)
	<-src.entered // the dispatcher holds request 0 inside its read
	for i := 1; i <= queued; i++ {
		wg.Add(1)
		go predict(i)
	}
	for len(s.reqs) < queued {
		runtime.Gosched()
	}
	close(src.release)
	wg.Wait()
	if t.Failed() {
		return
	}

	ws := net.NewWorkspace()
	want := make([]float64, net.OutDim())
	sizes := map[int]int{}
	for i, p := range preds {
		checkPrediction(t, net, p)
		if i > 0 {
			sizes[p.Batch]++
		}
		nn.SoftmaxInto(net.Forward(static, xs[i], ws), want)
		for k := range want {
			if math.Abs(p.Probs[k]-want[k]) > 1e-12 {
				t.Fatalf("request %d: probs[%d] = %v, want %v", i, k, p.Probs[k], want[k])
			}
		}
		if p.Class != tensor.ArgMax(want) {
			t.Fatalf("request %d: class %d, want %d", i, p.Class, tensor.ArgMax(want))
		}
	}
	if preds[0].Batch != 1 {
		t.Fatalf("held request served in a batch of %d, want 1", preds[0].Batch)
	}
	// 32 requests labeled 16 (two batches) and 8 labeled 8 (one batch).
	if len(sizes) != 2 || sizes[16] != 32 || sizes[8] != 8 {
		t.Fatalf("queued requests by batch label = %v, want map[8:8 16:32]", sizes)
	}
	if st := s.Stats(); st.Requests != queued+1 || st.Batches != 4 {
		t.Fatalf("stats = %+v, want %d requests in 4 batches", st, queued+1)
	}
}

// A served request reports a latency quantile above 0 and at most the
// slowest request, also when every request is answered within the 10µs
// histogram resolution.
func TestStatsQuantilesNeverZero(t *testing.T) {
	var st serverStats
	st.lat = metrics.NewHist(latencyBound)
	now := time.Now()
	st.observe([]request{{enq: now.Add(-2 * time.Microsecond)}, {enq: now.Add(-3 * time.Microsecond)}, {enq: now.Add(-4 * time.Microsecond)}},
		now, sgd.ReadMeta{Consistent: true})
	if got := st.quantile(0.5); got <= 0 || got > st.maxLat {
		t.Fatalf("sub-10µs P50 = %v, want in (0, %v]", got, st.maxLat)
	}
	if got := st.quantile(0.99); got != 4*time.Microsecond {
		t.Fatalf("sub-10µs P99 = %v, want the 4µs max", got)
	}
	// Above the resolution, the quantile is its bucket's upper edge.
	st.observe([]request{{enq: now.Add(-43 * time.Microsecond)}}, now, sgd.ReadMeta{Consistent: true})
	st.observe([]request{{enq: now.Add(-57 * time.Microsecond)}}, now, sgd.ReadMeta{Consistent: true})
	if got := st.quantile(0.99); got != 50*time.Microsecond {
		t.Fatalf("P99 = %v, want 50µs (upper edge of the bucket holding 43µs)", got)
	}
	if got := st.quantile(1); got != 57*time.Microsecond {
		t.Fatalf("P100 = %v, want the 57µs max, not its 60µs bucket edge", got)
	}

	// The same through a real server, however fast it answers.
	net, src := staticFixture(t)
	s, err := New(net, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := make([]float64, net.InDim())
	for i := 0; i < 20; i++ {
		if _, err := s.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Stats()
	if got.P50 <= 0 || got.P50 > got.MaxLatency || got.P99 < got.P50 || got.P99 > got.MaxLatency {
		t.Fatalf("stats P50 %v, P99 %v, MaxLatency %v: want 0 < P50 ≤ P99 ≤ MaxLatency", got.P50, got.P99, got.MaxLatency)
	}
}

// Predict allocates only the reply channel and the reply's Probs (plus
// slack for the runtime): the dispatcher allocates nothing per batch.
func TestPredictAllocs(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := make([]float64, net.InDim())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Predict(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Predict made %.1f allocations per call, want at most 3", allocs)
	}
}

// Stats counts a request before its caller gets the answer: read right
// after any Predict returns, Requests covers every answer returned so far.
func TestStatsCountAnsweredRequests(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 4
	const perClient = 200
	x := make([]float64, net.InDim())
	var returned atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Predict(x); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				n := returned.Add(1)
				if got := s.Stats().Requests; got < n {
					t.Errorf("Stats().Requests = %d after %d answers were returned", got, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCloseRejectsAndDrains(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Predict(make([]float64, net.InDim())); err != ErrClosed {
		t.Fatalf("Predict after Close = %v, want ErrClosed", err)
	}
}

func TestHTTPHandler(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	x := make([]float64, net.InDim())
	body, _ := json.Marshal(map[string][]float64{"x": x})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /predict = %d", resp.StatusCode)
	}
	var p Prediction
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	checkPrediction(t, net, p)

	// Bad input: wrong dimension.
	body, _ = json.Marshal(map[string][]float64{"x": {1, 2}})
	resp2, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dim POST /predict = %d, want 400", resp2.StatusCode)
	}

	// GET /predict is rejected; /stats and /healthz answer.
	resp3, err := http.Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict = %d, want 405", resp3.StatusCode)
	}
	resp4, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp4.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if stats["requests"].(float64) < 1 {
		t.Fatalf("stats = %v", stats)
	}
	resp5, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp5.StatusCode)
	}
}
