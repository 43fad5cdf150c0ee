package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leashedsgd/internal/nn"
	"leashedsgd/internal/rng"
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
	s, err := New(net, src, Config{MaxDelay: -1})
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

// Concurrent requests under a coalescing delay get batched: with many
// clients in flight the mean batch size must exceed 1, and every request
// still gets its own correct answer.
func TestBatcherCoalesces(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{MaxBatch: 16, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 8
	const perClient = 30
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = float64(c + i)
			}
			for i := 0; i < perClient; i++ {
				p, err := s.Predict(x)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				checkPrediction(t, net, p)
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("answered %d requests, want %d", st.Requests, clients*perClient)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch = %v; coalescing never engaged", st.MeanBatch)
	}
	t.Logf("batches=%d meanBatch=%.1f p50=%v p99=%v", st.Batches, st.MeanBatch, st.P50, st.P99)
}

// Stats counts a request before its caller gets the answer: read right
// after any Predict returns, Requests covers every answer returned so far.
func TestStatsCountAnsweredRequests(t *testing.T) {
	net, src := staticFixture(t)
	s, err := New(net, src, Config{MaxBatch: 4, MaxDelay: -1})
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
	s, err := New(net, src, Config{MaxDelay: -1})
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
	s, err := New(net, src, Config{MaxDelay: -1})
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
