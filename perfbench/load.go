package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"leashedsgd/internal/serve"
	"leashedsgd/internal/tensor"
)

// loadOut is what the closed-loop clients saw.
type loadOut struct {
	latUS      []float64 // per answered predict, as the client timed it
	answered   int
	failed     int // errors and predictions that failed their checks
	consistent int // predictions labelled Consistent
	window     time.Duration
	failures   []string
}

func (l loadOut) qps() float64 { return float64(l.answered) / l.window.Seconds() }

// closedLoop drives srv with the benchmark's closed-loop clients until stop
// is closed: each client sends its next predict, cycling over probes, only
// when the previous one has returned. Every prediction is checked: its class
// is the argmax of its distribution and the distribution sums to 1.
func closedLoop(srv *serve.Server, probes [][]float64, stop <-chan struct{}, tr *tracer, parent int) loadOut {
	outs := make([]loadOut, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range outs {
		wg.Add(1)
		go func(o *loadOut, c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := tr.open("Predict", parent)
				start := time.Now()
				p, err := srv.Predict(probes[(c+i*clients)%len(probes)])
				lat := time.Since(start)
				tr.close(s)
				if err != nil {
					o.failed++
					o.failures = append(o.failures, fmt.Sprintf("predict: %v", err))
					continue
				}
				if msg := checkPrediction(p); msg != "" {
					o.failed++
					o.failures = append(o.failures, msg)
					continue
				}
				o.answered++
				o.latUS = append(o.latUS, float64(lat)/float64(time.Microsecond))
				if p.Consistent {
					o.consistent++
				}
			}
		}(&outs[c], c)
	}
	wg.Wait()
	all := loadOut{window: time.Since(t0)}
	for _, o := range outs {
		all.latUS = append(all.latUS, o.latUS...)
		all.answered += o.answered
		all.failed += o.failed
		all.consistent += o.consistent
		all.failures = append(all.failures, o.failures...)
	}
	return all
}

// checkPrediction returns why p is malformed, or "".
func checkPrediction(p serve.Prediction) string {
	var sum float64
	for _, v := range p.Probs {
		sum += v
	}
	if math.Abs(sum-1) > probeTol {
		return fmt.Sprintf("predict: probabilities sum to %.17g", sum)
	}
	if am := tensor.ArgMax(p.Probs); p.Class != am {
		return fmt.Sprintf("predict: class %d, argmax %d", p.Class, am)
	}
	return ""
}
