package exp

// Experiment F5: dynamic membership under churn. F2 showed recovery
// completing on statically degraded fabrics; F5 runs the reliable
// multicast while the membership itself moves — seeded join/leave/
// crash/rejoin schedules (internal/member) whose crash windows are
// compiled into the fault plan — and compares the three repair
// policies: full re-planning, incremental graft/excise repair, and the
// binomial-over-survivors fallback. The headline relation is the
// tentpole's acceptance bar: incremental repair delivers no smaller a
// fraction of the surviving membership than full re-planning at every
// churn rate while issuing strictly fewer repair sends.

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/model"
	"repro/internal/runner"
)

// F5 scenario shape, shared by every cell so schedules stay comparable
// across policies: the joiner pool next to k initial members, the
// schedule horizon, the crash-window length and the rejoin probability.
const (
	churnPoolFrac   = 4     // pool size = max(2, k/churnPoolFrac)
	churnHorizon    = 65536 // cycles of scheduled churn
	churnDownCycles = 4096  // crash outage window
	churnRejoinFrac = 0.5   // fraction of crashes that rejoin
)

// F5Tables bundles the three views of experiment F5 over one sweep.
type F5Tables struct {
	// Latency is completion latency (last delivery among the members
	// still subscribed and alive at quiesce) vs churn rate.
	Latency *Table
	// Delivered is the delivered fraction of the surviving membership
	// (percent) next to the membership-and-fault-reachability oracle
	// ceiling per fabric; under pure node churn the engine's contract
	// is exact equality with the oracle.
	Delivered *Table
	// Repair is the repair traffic per run: the sends issued by subtree
	// re-planning after excision (grafts and orphan re-assignments are
	// reported in the notes, not here — they are common to all
	// policies; repair sends are where the policies differ).
	Repair *Table
}

// churnPool returns the joiner-pool size for k initial members.
func churnPool(k int) int {
	if p := k / churnPoolFrac; p > 2 {
		return p
	}
	return 2
}

// policyID is the canonical cache label of a repair policy.
func policyID(p mcastsim.RepairPolicy) string {
	switch p {
	case mcastsim.RepairIncremental:
		return "incr"
	case mcastsim.RepairBinomial:
		return "binom"
	default:
		return "full"
	}
}

// churnCell builds the engine cell for one churned reliable multicast:
// k initial members plus a joiner pool placed by the trial, a churn
// schedule drawn at rate events/Mcycle from schedSeed, crashes compiled
// into the fault plan, and the membership engine run under the given
// repair policy. The schedule seed is shared across policies of the
// same (rate, trial), so the policies face identical churn.
func (s *Suite) churnCell(a Algorithm, policy mcastsim.RepairPolicy, k, bytes, trial, rate int,
	schedSeed, recSeed uint64, thold, tend model.Time) runner.Cell {
	pool := churnPool(k)
	return runner.Cell{
		Key: runner.Key{
			Mode: "churn", Platform: s.Platform.Name, Algo: a.keyID(), Soft: s.softKey(),
			K: k, Bytes: bytes, X: rate, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
			THold: thold, TEnd: tend, FaultSeed: schedSeed, RecSeed: recSeed,
			Extra: fmt.Sprintf("policy=%s|pool=%d|horizon=%d|rejoin=%g|down=%d",
				policyID(policy), pool, churnHorizon, churnRejoinFrac, churnDownCycles),
		},
		Run: func() (runner.Result, error) {
			addrs := s.placement(trial, k+pool)
			members, joiners := addrs[:k], addrs[k:]
			sched, err := member.GenSchedule(member.ChurnSpec{
				RatePerMcycle: float64(rate),
				Horizon:       churnHorizon,
				RejoinFrac:    churnRejoinFrac,
				DownCycles:    churnDownCycles,
				Seed:          schedSeed,
			}, members, joiners)
			if err != nil {
				return runner.Result{}, err
			}
			net := s.Platform.NewNet()
			fp, err := fault.NewPlan(net.Topology(), fault.Spec{NodeOutages: sched.Outages})
			if err != nil {
				return runner.Result{}, err
			}
			net.SetFaults(fp)
			ch := chain.New(addrs, s.Platform.Less)
			tab := a.Table(len(ch), thold, tend)
			res, err := member.Run(net, tab, ch, sched, bytes, mcastsim.ReliableConfig{
				Sim:    s.runConfig(),
				TEnd:   tend,
				Repair: policy,
				Seed:   recSeed,
			})
			if err != nil {
				return runner.Result{}, err
			}
			fallback := 0.0
			if res.FallbackAt >= 0 {
				fallback = 1
			}
			// Delivered fraction and the oracle ceiling over the same
			// denominator: the non-source members still subscribed and
			// alive at quiesce. A fully churned-away group (contract 0)
			// is vacuously complete.
			contract := res.Delivered + res.Undelivered
			frac, reach := 100.0, 100.0
			if contract > 0 {
				frac = 100 * float64(res.Delivered) / float64(contract)
				n := 0 // oracle positions, source included
				for _, ok := range res.Oracle {
					if ok {
						n++
					}
				}
				reach = 100 * float64(n-1) / float64(contract)
			}
			oh := res.Overhead
			return runner.Result{Metrics: map[string]float64{
				"latency":     float64(res.Latency),
				"delivered":   frac,
				"reach":       reach,
				"repairsends": float64(oh.RepairSends),
				"grafts":      float64(res.Grafts),
				"orphans":     float64(oh.OrphanSends),
				"retransmits": float64(oh.Retransmits),
				"events":      float64(res.Events),
				"fallback":    fallback,
			}}, nil
		},
	}
}

// ChurnSweep runs experiment F5: reliable multicast under membership
// churn at each rate in rates (events per million cycles), with the
// three repair policies on both reference machines. Churn schedules use
// the same per-(row, trial) seed formula as the fault sweeps, and the
// same schedule seed is shared by all policy columns of a suite, so the
// policies are compared on identical event sequences.
func ChurnSweep(meshSuite, bminSuite *Suite, k, bytes int, rates []int, churnSeed uint64) (*F5Tables, error) {
	for _, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("exp: churn rate %d must be >= 0 events/Mcycle", r)
		}
	}
	cols := []series{
		{meshSuite, Opt("OPT-mesh")}, {meshSuite, Opt("OPT-mesh")}, {meshSuite, Opt("OPT-mesh")},
		{bminSuite, Opt("OPT-min")}, {bminSuite, Opt("OPT-min")}, {bminSuite, Opt("OPT-min")},
	}
	// Each suite's columns run the three repair policies in this order.
	policies := []mcastsim.RepairPolicy{mcastsim.RepairFull, mcastsim.RepairIncremental, mcastsim.RepairBinomial}
	algoNames := []string{
		"full (mesh)", "incremental (mesh)", "binomial (mesh)",
		"full (BMIN)", "incremental (BMIN)", "binomial (BMIN)",
	}
	trials := meshSuite.trials()

	newTable := func(title, ylabel string, algos []string) *Table {
		return &Table{
			Title:      title,
			XLabel:     "churn rate (events/Mcycle)",
			YLabel:     ylabel,
			Algorithms: algos,
		}
	}
	f5 := &F5Tables{
		Latency: newTable(
			fmt.Sprintf("F5a: completion latency under churn vs churn rate (k=%d, %d-byte messages)", k, bytes),
			"completion latency (cycles, mean over all runs)", algoNames),
		Delivered: newTable(
			fmt.Sprintf("F5b: delivered fraction under churn vs churn rate (k=%d, %d-byte messages)", k, bytes),
			"surviving members delivered (%, vs membership-reachability oracle)",
			append(append([]string{}, algoNames...), "reachable (mesh)", "reachable (BMIN)")),
		Repair: newTable(
			fmt.Sprintf("F5c: repair sends under churn vs churn rate (k=%d, %d-byte messages)", k, bytes),
			"repair sends per run (mean; excision re-plans only)", algoNames),
	}

	tends, err := calibrateHealthy(cols, &f5.Latency.Notes, bytes)
	if err != nil {
		return nil, err
	}
	f5.Latency.Notes = append(f5.Latency.Notes,
		fmt.Sprintf("%d random placements per point, placement seed %d, churn seed %d; pool=%d horizon=%d rejoin=%g down=%d",
			trials, meshSuite.Seed, churnSeed, churnPool(k), churnHorizon, churnRejoinFrac, churnDownCycles))
	f5.Delivered.Notes = append(f5.Delivered.Notes,
		"reachable columns are the membership-and-fault oracle (member.ReachableAmong) on the same schedules;",
		"delivered == reachable under pure node churn is the engine's quiesce contract")

	res, err := grid{len(rates), len(cols), trials, func(r, c, tr int) runner.Cell {
		s := cols[c].suite
		schedSeed := faultPlanSeed(churnSeed, r, tr)
		return s.churnCell(cols[c].algo, policies[c%len(policies)], k, bytes, tr, rates[r],
			schedSeed, schedSeed+uint64(c)*0x9e3779b1,
			s.Software.Hold.At(bytes), tends[c][bytes])
	}}.run(meshSuite, f5.Latency.Title, f5.Latency, f5.Delivered, f5.Repair)
	if res == nil {
		return f5, err
	}

	fill(f5.Latency, rates, func(r, c int) Cell { return statCell(res.stats(r, c, "latency")) })
	heads := suiteHeads(cols)
	fill(f5.Delivered, rates, func(r, c int) Cell {
		if c >= len(cols) {
			// The oracle depends only on the fabric and the schedule, so
			// each suite's first column carries it.
			return statCell(res.stats(r, heads[c-len(cols)], "reach"))
		}
		return statCell(res.stats(r, c, "delivered"))
	})
	fill(f5.Repair, rates, func(r, c int) Cell {
		if fb := res.sum(r, c, "fallback"); fb > 0 {
			f5.Repair.Notes = append(f5.Repair.Notes, fmt.Sprintf("%s at %d events/Mcycle: %d/%d runs degraded to binomial over survivors",
				algoNames[c], rates[r], int(fb), trials))
		}
		if c == len(cols)-1 {
			// Graft/orphan traffic is policy-independent by construction;
			// record it once per row from the first mesh column.
			grafts, orphans := res.stats(r, 0, "grafts"), res.stats(r, 0, "orphans")
			f5.Repair.Notes = append(f5.Repair.Notes, fmt.Sprintf("at %d events/Mcycle (mesh, full): %.1f grafts, %.1f orphan sends per run",
				rates[r], grafts.Mean(), orphans.Mean()))
		}
		return statCell(res.stats(r, c, "repairsends"))
	})
	return f5, nil
}
