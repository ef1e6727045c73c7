package main

import (
	"errors"
	"fmt"

	"gossip/internal/core"
	"gossip/internal/gossipd"
	"gossip/internal/phone"
	"gossip/internal/runner"
	"gossip/internal/stats"
	"gossip/internal/xrand"
)

// runner.Execute's seed-stream tags: an op's graph and protocol seeds are
// split off its cell seed exactly as a sweep cell's are, so a simulator op
// is the cell repetition runner.Execute would run (the tests pin this).
const (
	tagGraph = 0x67726170 // "grap"
	tagRun   = 0x72756e21 // "run!"
)

// input is the generated input of one op: pool entry index and the seeds
// derived from the benchmark seed.
type input struct {
	index     int
	cell      uint64 // runner.CellSeed(seed, 0, index)
	graphSeed uint64
	runSeed   uint64
}

func makeInputs(seed uint64, k int) []input {
	ins := make([]input, k)
	for i := range ins {
		cell := runner.CellSeed(seed, 0, i)
		ins[i] = input{
			index:     i,
			cell:      cell,
			graphSeed: xrand.SeedFor(cell, tagGraph),
			runSeed:   xrand.SeedFor(cell, tagRun),
		}
	}
	return ins
}

// outcome is what one op reports: the paper's two outputs, or why the op
// failed.
type outcome struct {
	msgsPerNode float64
	rounds      float64
	err         error
}

// workload is one benchmark workload. Ops cycle through a fixed pool of
// inputs, so the per-input metrics (msgs_per_node, rounds, allocation)
// are averages over the same pool however many ops a run completes.
type workload struct {
	name string
	n    int
	// pool is the number of distinct inputs ops cycle through.
	pool int
	// exact marks a simulator workload: an op's outcome and the program's
	// own allocation count are deterministic functions of its input.
	exact bool
	// stateBytes is the rumor tracker's state size, computed from n.
	stateBytes int64
	stateNote  string
	op         func(in input, tr *tracer) outcome
}

// workloads returns the benchmark's workloads at their benchmark sizes.
func workloads() []workload {
	return []workload{
		pushPullExact("pushpull-exact-16k", 16384),
		gossipdBroadcast("gossipd-broadcast-64", 64),
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

func erScenario(algo string, n int) runner.Scenario {
	return runner.Scenario{Algo: algo, Model: "er", N: n, Density: 1}
}

// pushPullExact is push–pull gossip on G(n, log²n/n) observed through the
// exact msg.Full tracker (two n×n bit matrices).
func pushPullExact(name string, n int) workload {
	s := erScenario("pushpull", n)
	return workload{
		name: name, n: n, pool: 8, exact: true,
		stateBytes: 2 * int64(n) * int64(n) / 8,
		stateNote:  "computed: msg.Full double buffer, 2 x n^2 bits",
		op: func(in input, tr *tracer) outcome {
			g, err := tr.buildGraph(s, in.graphSeed)
			if err != nil {
				return outcome{err: err}
			}
			nt := tr.netInit(g, in.runSeed)
			var res *core.Result
			tr.coreRun(func(tf core.TransportFactory) { res, _ = core.PushPullOver(nt, 0, tf) })
			tr.encode(s, res.TransmissionsPerNode(), res.Steps, res.Completed)
			if !res.Completed {
				return outcome{err: errors.New("push-pull did not complete")}
			}
			return outcome{msgsPerNode: res.TransmissionsPerNode(), rounds: float64(res.Steps)}
		},
	}
}

// gossipdBroadcast is one gossipd.Serve call: a push–pull broadcast over
// loopback TCP among n in-process nodes.
func gossipdBroadcast(name string, n int) workload {
	return workload{
		name: name, n: n, pool: 16,
		stateNote: "computed: no message tracker (one rumor per node)",
		op: func(in input, tr *tracer) outcome {
			rep, err := tr.serve(gossipd.Config{N: n, Seed: in.cell})
			if err != nil {
				return outcome{err: err}
			}
			var rounds int32
			for v, at := range rep.InformedAt {
				if at < 0 {
					return outcome{err: fmt.Errorf("node %d never informed", v)}
				}
				rounds = max(rounds, at)
			}
			if !rep.Completed {
				return outcome{err: errors.New("gossipd run did not complete")}
			}
			return outcome{msgsPerNode: phone.PerNode(rep.Dials, rep.N), rounds: float64(rounds)}
		},
	}
}

// cellResult is the runner.CellResult a sweep would record for one
// repetition of s with these gossip metrics (runner.Execute's names).
func cellResult(s runner.Scenario, msgsPerNode float64, steps int, completed bool) runner.CellResult {
	acc := func(x float64) *stats.Acc {
		a := &stats.Acc{}
		a.Add(x)
		return a
	}
	done := 0.0
	if completed {
		done = 1
	}
	s.Reps = 1
	return runner.CellResult{Scenario: s, Metrics: map[string]*stats.Acc{
		"msgs_per_node": acc(msgsPerNode),
		"steps":         acc(float64(steps)),
		"completed":     acc(done),
	}}
}
