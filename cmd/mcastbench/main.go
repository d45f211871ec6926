// Command mcastbench regenerates the paper's figures and this
// repository's ablations on the flit-level simulator and prints them as
// aligned tables (or CSV).
//
// Usage:
//
//	mcastbench -fig 2            # Figure 2: 32-node size sweep, 16x16 mesh
//	mcastbench -fig all -csv     # everything, machine readable
//	mcastbench -fig 3 -trials 4  # quicker, noisier
//
// Every sweep decomposes into a manifest of independent cells, so runs
// can be split across machines and resumed:
//
//	mcastbench -fig all -shard 0/4 -cache results/cache   # machine 1 of 4
//	mcastbench -fig all -resume -summary -                # merge from cache
//
// The f6 tuner figure additionally accepts -surface FILE (write the
// compiled crossover surfaces as a hash-verified JSON artifact):
//
//	mcastbench -fig f6 -surface results/tuner_surface.json
//
// -cpuprofile FILE records a CPU profile of the whole run, and
// -memprofile FILE writes its allocs profile once it ends:
//
//	mcastbench -fig t1 -cpuprofile t1.pprof -memprofile t1.mem.pprof
//
// Figures: 1, 2, 2b, 3, b2, b3, contention, ratio, addr, policy, e1, e2, h1, t1, b4, conc, model, f1, f2, f3, f4, f5, f6, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bmin"
	"repro/internal/cpuprof"
	"repro/internal/exp"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/tuner"
	"repro/internal/wallclock"
	"repro/internal/wormhole"
)

type options struct {
	fig      string
	trials   int
	seed     uint64
	workers  int
	csv      bool
	chart    bool
	shard    string // "i/n", or "" for all cells
	cacheDir string
	resume   bool
	summary  string // summary JSON path, "-" = stderr, "" = none
	progress bool
	surface  string
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: 1, 2, 2b, 3, b2, b3, contention, ratio, addr, policy, e1, e2, h1, t1, b4, conc, model, f1, f2, f3, f4, f5, f6, all")
	flag.IntVar(&o.trials, "trials", 16, "random placements per data point (the paper uses 16)")
	flag.Uint64Var(&o.seed, "seed", 1997, "PRNG seed")
	flag.IntVar(&o.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned text")
	flag.BoolVar(&o.chart, "chart", false, "also draw each figure as an ASCII chart")
	flag.StringVar(&o.shard, "shard", "", "compute only slice i of n of every sweep manifest, format i/n (e.g. 0/4); requires -cache to be useful")
	flag.StringVar(&o.cacheDir, "cache", "", "cell cache directory (one append-only log per run); without -resume every owned cell recomputes and appends an entry that replaces the old one")
	flag.BoolVar(&o.resume, "resume", false, "reuse cached cell results before computing (cache dir defaults to results/cache when -cache is unset)")
	flag.StringVar(&o.summary, "summary", "", "write a per-run JSON summary (cells computed/cached/skipped, wall time) to this file; \"-\" = stderr")
	flag.BoolVar(&o.progress, "progress", false, "print progress/ETA lines to stderr")
	flag.StringVar(&o.surface, "surface", "", "with -fig f6: write the compiled crossover surfaces (hash-verified JSON artifact) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof reads it)")
	memprofile := flag.String("memprofile", "", "write the allocs profile of the run to this file after it ends (go tool pprof reads it)")
	flag.Parse()

	if err := cpuprof.Run(*cpuprofile, *memprofile, func() error { return run(o) }); err != nil {
		fmt.Fprintln(os.Stderr, "mcastbench:", err)
		os.Exit(1)
	}
}

// parseShard parses "i/n" into (i, n); "" means (0, 1) — all cells.
// Anything but two integers around one slash is rejected.
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, _ := strings.Cut(s, "/")
	i, ierr := strconv.Atoi(is)
	n, nerr := strconv.Atoi(ns)
	if ierr != nil || nerr != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/4)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < n", s)
	}
	return i, n, nil
}

func run(o options) (err error) {
	if o.trials < 1 {
		return fmt.Errorf("bad -trials %d: need at least 1 placement per point", o.trials)
	}
	shard, nshards, err := parseShard(o.shard)
	if err != nil {
		return err
	}
	ex := &runner.Exec{
		Workers: o.workers,
		Shard:   shard, NShards: nshards,
		Resume:  o.resume,
		Summary: &runner.Summary{},
	}
	cacheDir := o.cacheDir
	if cacheDir == "" && o.resume {
		cacheDir = filepath.Join("results", "cache")
	}
	if cacheDir != "" {
		if ex.Cache, err = runner.OpenCache(cacheDir); err != nil {
			return err
		}
		defer func() {
			if cerr := ex.Cache.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if o.progress {
		ex.Progress = os.Stderr
	}
	start := wallclock.Now()

	cfg := wormhole.DefaultConfig()
	newSuite := func(p exp.Platform) *exp.Suite {
		s := exp.DefaultSuite(p)
		s.Trials, s.Seed = o.trials, o.seed
		s.Exec = ex
		return s
	}
	meshSuite := func() *exp.Suite { return newSuite(exp.MeshPlatform(16, 16, cfg)) }
	bminSuite := func() *exp.Suite { return newSuite(exp.BMINPlatform(128, bmin.AscentStraight, cfg)) }

	// show prints a figure's tables in order.
	show := func(tables ...*exp.Table) {
		for _, t := range tables {
			switch {
			case t.Incomplete:
				// A shard run computed (and cached) its slice of this sweep;
				// the merge happens on whichever run sees the full cache.
				fmt.Printf("%s\n  [deferred: shard %s computed its cells; merge needs every shard's cache entries]\n", t.Title, o.shard)
				continue
			case o.csv:
				fmt.Println("#", t.Title)
				fmt.Print(t.CSV())
			default:
				fmt.Println(t.Format())
			}
			if o.chart {
				fmt.Println(t.Chart(64, 16))
			}
		}
	}
	emit := func(t *exp.Table, err error) error {
		if err == nil {
			show(t)
		}
		return err
	}

	figures := map[string]func() error{
		"1": func() error {
			f, err := exp.Figure1()
			if err != nil {
				return err
			}
			fmt.Printf("Figure 1 (worked example): 6x6 mesh, 8 nodes, t_hold=%d, t_end=%d\n", f.THold, f.TEnd)
			fmt.Printf("  OPT-mesh multicast latency: %d (paper: 130)\n", f.OptLatency)
			fmt.Printf("  U-mesh   multicast latency: %d (paper: 165)\n", f.UMeshLat)
			fmt.Println("  OPT tree (chain positions, children in send order):")
			fmt.Print(indent(f.OptTree.String(), "    "))
			fmt.Println("  U-mesh tree:")
			fmt.Print(indent(f.UMeshTree.String(), "    "))
			return nil
		},
		"2":  func() error { return emit(exp.Figure2(meshSuite())) },
		"2b": func() error { return emit(exp.Figure2b(meshSuite())) },
		"3":  func() error { return emit(exp.Figure3(meshSuite())) },
		"b2": func() error { return emit(exp.BMINSizes(bminSuite())) },
		"b3": func() error { return emit(exp.BMINNodes(bminSuite())) },
		"contention": func() error {
			return emit(exp.ContentionComparison(meshSuite(), bminSuite(), 32, exp.DefaultSizes()))
		},
		"ratio": func() error {
			ratios := []float64{0.01, 0.05, 0.1, 0.2, 0.36, 0.5, 0.75, 1.0}
			return emit(exp.RatioAblation(32, 1000, ratios), nil)
		},
		"addr": func() error {
			return emit(exp.AddrAblation(meshSuite(), 32, 4096, 4))
		},
		"policy": func() error {
			return emit(exp.PolicyAblation(128, cfg, model.DefaultSoftware(), o.trials, o.seed, 32, 4096, ex))
		},
		"e1": func() error {
			return emit(exp.ButterflyTemporal(newSuite(exp.ButterflyPlatform(128, cfg)), 32, exp.DefaultSizes()))
		},
		"h1": func() error {
			return emit(exp.HypercubeSizes(newSuite(exp.HypercubePlatform(8, cfg)), 32, exp.DefaultSizes()))
		},
		"model": func() error {
			return emit(exp.ModelValidation(meshSuite(), []int{4, 8, 16, 32, 64, 128, 256}, 4096))
		},
		"b4": func() error {
			sizes := []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}
			return emit(exp.BroadcastCrossover(meshSuite(), sizes))
		},
		"t1": func() error {
			return emit(exp.TorusSizes(newSuite(exp.TorusPlatform(16, 16, cfg)), 32, exp.DefaultSizes()))
		},
		"conc": func() error {
			return emit(exp.ConcurrentInterference(meshSuite(), []int{1, 2, 4, 8}, 16, 4096))
		},
		"e2": func() error {
			return emit(exp.TemporalTuning(newSuite(exp.ButterflyPlatform(128, cfg)), 32, 4096, 400))
		},
		"f1": func() error {
			// A k=32 chain spans the fabric, so a run survives only if every
			// hop can route around its dead links; past a few percent almost
			// no run delivers. Sweep the transition region.
			return emit(exp.FaultSweep(meshSuite(), bminSuite(), 32, 4096, []int{0, 1, 2, 3, 4, 5}, o.seed))
		},
		"f2": func() error {
			// The same fault plans as F1, now with the recovery layer on:
			// completion latency, delivered fraction vs the reachability
			// oracle, and the retransmission overhead bought.
			f2, err := exp.RecoverSweep(meshSuite(), bminSuite(), 32, 4096, []int{0, 1, 2, 3, 4, 5}, o.seed)
			if err == nil {
				show(f2.Latency, f2.Delivered, f2.Overhead)
			}
			return err
		},
		"f3": func() error {
			// The open system: sustained multicast service under seeded
			// Poisson load. Offered rate sweeps through the saturation knee
			// of every tree; the notes pin each series' knee.
			f3, err := exp.TrafficSweep(meshSuite(), bminSuite(), exp.DefaultTrafficRates(), exp.DefaultTrafficScenario())
			if err == nil {
				show(f3.Latency, f3.Throughput, f3.Queue)
			}
			return err
		},
		"f5": func() error {
			// Dynamic membership: the reliable multicast under seeded
			// join/leave/crash/rejoin churn, comparing full re-planning,
			// incremental graft/excise repair and the binomial fallback.
			// Rates are hot enough that churn overlaps the delivery wave,
			// where the repair policies actually diverge.
			f5, err := exp.ChurnSweep(meshSuite(), bminSuite(), 32, 4096, []int{100, 200, 400, 800, 1600}, o.seed)
			if err == nil {
				show(f5.Latency, f5.Delivered, f5.Repair)
			}
			return err
		},
		"f6": func() error {
			// The crossover surface as a service: train a per-platform
			// best-algorithm surface on half the trials, evaluate the
			// selector against the static envelope on the held-out half.
			f6, err := exp.TunerSweep(meshSuite(), bminSuite(), exp.DefaultTunerGrid(), o.seed)
			if err != nil {
				return err
			}
			show(f6.Selection, f6.Latency, f6.Regret)
			if o.surface != "" {
				if len(f6.Surfaces) == 0 {
					fmt.Fprintf(os.Stderr, "mcastbench: -surface skipped: shard run built no surfaces\n")
					return nil
				}
				buf, err := tuner.EncodeSet(f6.Surfaces...)
				if err != nil {
					return err
				}
				return os.WriteFile(o.surface, buf, 0o644)
			}
			return nil
		},
		"f4": func() error {
			// Scalability: the same 32-node multicast on ever larger
			// fabrics.
			return emit(exp.ScaleLatency(cfg, model.DefaultSoftware(), o.trials, o.seed, ex))
		},
	}

	runFigs := func() error {
		order := []string{"1", "2", "2b", "3", "b2", "b3", "contention", "ratio", "addr", "policy", "e1", "e2", "h1", "t1", "b4", "conc", "model", "f1", "f2", "f3", "f4", "f5", "f6"}
		if o.fig == "all" {
			for _, name := range order {
				fmt.Printf("==== %s ====\n", name)
				if err := figures[name](); err != nil {
					return fmt.Errorf("figure %s: %w", name, err)
				}
				fmt.Println()
			}
			return nil
		}
		f, ok := figures[o.fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (want one of %s, all)", o.fig, strings.Join(order, ", "))
		}
		return f()
	}
	if err := runFigs(); err != nil {
		return err
	}

	ex.Summary.Finish(o.fig, o.shard, o.workers, cacheDir, wallclock.Since(start).Milliseconds())
	if o.summary != "" {
		return ex.Summary.WriteFile(o.summary)
	}
	return nil
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
