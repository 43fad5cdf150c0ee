package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/serve"
	"leashedsgd/internal/sgd"
)

// runServe implements `leashed serve`: an online inference tier over a live
// training run. It starts a Leashed-SGD run (autotuned by default), stands an
// HTTP prediction server on top of the SAME ParamStore the workers publish
// into — every answer is computed from a zero-copy leased view and labeled
// with its consistency class — and keeps serving from the immutable final
// parameters after the training budget expires. The process runs until
// interrupted.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8321", "HTTP listen address")
	arch := fs.String("arch", "mlp", "mlp, cnn, paper-mlp, paper-cnn")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "training worker count m")
	eta := fs.Float64("eta", 0.05, "step size")
	batch := fs.Int("batch", 16, "mini-batch size")
	autoTune := fs.Bool("autotune", true, "jointly autotune shard count and persistence bound")
	budget := fs.Duration("budget", 60*time.Second, "training time budget (serving continues on the final parameters)")
	maxBatch := fs.Int("max-batch", 0, "max predict batch size: requests queued during a forward pass share the next one (0 = default)")
	store := fs.String("store", serve.StoreLeased, "parameter read path: leased (per-chain seqlock leases) or readfront (RCU snapshot store)")
	leashAge := fs.Duration("leash-age", 0, "readfront: max wall time a served snapshot may lag (0 = default 2ms)")
	leashUpdates := fs.Int64("leash-updates", 0, "readfront: max published updates a served snapshot may lag (0 = age bound only)")
	samples := fs.Int("samples", 1024, "dataset size")
	seed := fs.Uint64("seed", 1, "seed")
	mnistDir := fs.String("mnist", "", "real MNIST IDX directory (optional)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	var net *nn.Network
	switch *arch {
	case "mlp":
		net = nn.NewSmallMLP(28*28, 10)
	case "cnn":
		net = nn.NewSmallCNN()
	case "paper-mlp":
		net = nn.NewPaperMLP()
	case "paper-cnn":
		net = nn.NewPaperCNN()
	default:
		fmt.Fprintf(os.Stderr, "unknown arch %q\n", *arch)
		os.Exit(2)
	}

	ds, real := data.LoadOrGenerate(*mnistDir, *samples, *seed)
	run, err := sgd.Start(sgd.Config{
		Algo:        sgd.Leashed,
		Workers:     *workers,
		Eta:         *eta,
		BatchSize:   *batch,
		Persistence: sgd.PersistenceInf,
		AutoTune:    *autoTune,
		EpsilonFrac: 0, // serve runs to the budget; convergence doesn't stop serving
		MaxTime:     *budget,
		Seed:        *seed,
	}, net, ds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv, err := serve.New(net, run, serve.Config{
		MaxBatch: *maxBatch,
		Store:    *store,
		Leash:    paramvec.ReadLeash{MaxAge: *leashAge, MaxUpdates: *leashUpdates},
	})
	if err != nil {
		run.Stop()
		run.Wait()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	dataset := "synthetic MNIST"
	if real {
		dataset = "real MNIST"
	}
	fmt.Printf("training %s on %s: m=%d, autotune=%v, budget %v\n",
		net.Arch(), dataset, *workers, *autoTune, *budget)
	fmt.Printf("serving on http://%s  store=%s  (POST /predict, GET /stats, GET /healthz)\n", *addr, *store)

	go func() {
		res := run.Wait()
		fmt.Printf("training done: %s, loss %.4f -> %.4f, %d updates",
			res.Outcome, res.InitialLoss, res.FinalLoss, res.TotalUpdates)
		if res.ShardTrajectory != nil {
			fmt.Printf(", shard trajectory %v", res.ShardTrajectory)
		}
		fmt.Println("; now serving the final parameters")
	}()

	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
