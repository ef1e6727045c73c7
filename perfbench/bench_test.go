package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"gossip/internal/runner"
)

// Small instances of the simulator workloads keep the tests fast; the ops
// are the same code paths as at benchmark size.
func smallSimulators() []workload {
	return []workload{
		pushPullExact("pushpull", 1024),
	}
}

// An op is the cell repetition runner.Execute would run for its seed.
func TestOpMatchesRunnerExecute(t *testing.T) {
	const seed = 7
	for _, w := range smallSimulators() { // named after its runner algo
		for _, in := range makeInputs(seed, 2) {
			o := w.op(in, nil)
			if o.err != nil {
				t.Fatalf("%s input %d: %v", w.name, in.index, o.err)
			}
			m := runner.Execute(erScenario(w.name, w.n), in.index, runner.CellSeed(seed, 0, in.index))
			if o.msgsPerNode != m["msgs_per_node"] || o.rounds != m["steps"] {
				t.Errorf("%s input %d: op gave msgs %v rounds %v, runner.Execute %v and %v",
					w.name, in.index, o.msgsPerNode, o.rounds, m["msgs_per_node"], m["steps"])
			}
		}
	}
}

// Tracing must not change what an op computes.
func TestTracedOpMatchesUntraced(t *testing.T) {
	rec := newRecorder()
	for _, w := range smallSimulators() {
		for _, in := range makeInputs(3, 2) {
			plain := w.op(in, nil)
			tr := newTracer(rec, 1)
			traced := w.op(in, tr)
			tr.finish()
			if plain.err != nil || traced.err != nil {
				t.Fatalf("%s input %d: %v / %v", w.name, in.index, plain.err, traced.err)
			}
			if plain.msgsPerNode != traced.msgsPerNode || plain.rounds != traced.rounds {
				t.Errorf("%s input %d: untraced msgs %v rounds %v, traced %v and %v", w.name, in.index,
					plain.msgsPerNode, plain.rounds, traced.msgsPerNode, traced.rounds)
			}
		}
	}
}

func tracedRun(t *testing.T, w workload, seed uint64) *report {
	t.Helper()
	b := &bench{w: w, seed: seed, dur: 50 * time.Millisecond, ins: makeInputs(seed, w.pool)}
	rep, err := b.traced()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: traced run not correct: %v", w.name, rep.Errors)
	}
	return rep
}

// The counts a simulator op determines repeat exactly across traced runs,
// and tracing leaves the paper's outputs unchanged.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"graph.arcs", "phone.steps", "phone.channels_opened", "phone.responses",
		"core.callbacks", "msg.transfers", "runtime.mallocs_per_op"}
	for _, w := range smallSimulators() {
		a, b := tracedRun(t, w, 5), tracedRun(t, w, 5)
		for _, k := range exact {
			if a.Metrics[k] != b.Metrics[k] {
				t.Errorf("%s %s: %v then %v", w.name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
		if a.Metrics["phone.steps"].Value == 0 || a.Metrics["runtime.mallocs_per_op"].Value == 0 {
			t.Errorf("%s: layer counts missing: %v", w.name, a.Metrics)
		}
		// The traced run's outcome is the untraced ops' outcome over the pool.
		var msgs, rounds float64
		for _, in := range makeInputs(5, w.pool) {
			o := w.op(in, nil)
			msgs += o.msgsPerNode
			rounds += o.rounds
		}
		k := float64(w.pool)
		if a.Outcome["msgs_per_node"] != msgs/k || a.Outcome["rounds"] != rounds/k {
			t.Errorf("%s: traced outcome %v, untraced msgs %v rounds %v", w.name, a.Outcome, msgs/k, rounds/k)
		}
		tracked := a.Metrics["msg.transfers"].Value > 0
		if tracked != (w.stateBytes > 0) {
			t.Errorf("%s: msg.transfers %v with tracker state %d", w.name, a.Metrics["msg.transfers"].Value, w.stateBytes)
		}
	}
}

func TestGossipdOp(t *testing.T) {
	w := gossipdBroadcast("gossipd", 16)
	w.pool = 2
	rep := tracedRun(t, w, 1)
	for _, k := range []string{"gossipd.run_s", "gossipd.dials_per_node", "gossipd.wire_bytes_per_node", "gossipd.local_steps_max"} {
		if rep.Metrics[k].Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, rep.Metrics[k].Value)
		}
	}
}

func TestReferenceCheck(t *testing.T) {
	if err := referenceCheck(".."); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.got {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: BENCHMARK.json %v, program %v", c.what, got, c.want)
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, rank int }{{1, 1}, {10, 6}, {19, 10}, {30, 20}, {500, 490}} {
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
	}
}
