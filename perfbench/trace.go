package main

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"gossip/internal/core"
	"gossip/internal/gossipd"
	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/runner"
)

// span is one traced interval: an op, or a call into a layer made by the
// benchmark. Spans of one op share its id; Parent is the enclosing span
// (0 for an op). A phone.step span carries the step's callback busy time
// and call counts per phase in Attrs.
type span struct {
	Op     int                `json:"op"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps a run's spans in memory until the run ends.
type recorder struct {
	base  time.Time
	spans []span
	// clockCost is the median time between two back-to-back clock reads,
	// subtracted from each timed callback.
	clockCost int64
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	gaps := make([]float64, 1001)
	for i := range gaps {
		a := r.now()
		gaps[i] = float64(r.now() - a)
	}
	r.clockCost = int64(median(gaps))
	return r
}

// now is monotonic nanoseconds since the recorder was made.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) begin(op int, name string, parent int) int {
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: r.now()})
	return len(r.spans)
}

// end closes span id and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	s := &r.spans[id-1]
	s.End = r.now()
	return s.End - s.Start
}

// Callback phases of one phone.Sync step, in execution order.
const (
	phStep = iota // OnStep: the dial
	phPush        // OnReceive of pushes
	phOpen        // OnOpen: the responses
	phResp        // OnReceive of responses
	phEnd         // OnStepEnd
	nPhases
)

var phaseNames = [nPhases]string{"on_step", "on_receive_push", "on_open", "on_receive_resp", "on_step_end"}

// tracer times one op at the public boundary of each layer. A nil tracer
// is the untraced op: every method calls straight through.
type tracer struct {
	rec   *recorder
	op    int
	opID  int
	runID int
	// layer holds this op's per-layer values, keyed by metric name (plus
	// a few internal keys the run's aggregation maps onto metrics).
	layer map[string]float64
	// mark is when the driver last got control back from the transport
	// (transport built, or a Step returned); the time from mark to the
	// next Step is spent in the driver's hooks.
	mark int64
}

func newTracer(rec *recorder, op int) *tracer {
	return &tracer{rec: rec, op: op, opID: rec.begin(op, "op", 0), layer: map[string]float64{}}
}

func (t *tracer) finish() map[string]float64 {
	t.rec.end(t.opID)
	return t.layer
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func (t *tracer) buildGraph(s runner.Scenario, seed uint64) (*graph.Graph, error) {
	if t == nil {
		return runner.BuildGraph(s, seed)
	}
	id := t.rec.begin(t.op, "graph.build", t.opID)
	g, err := runner.BuildGraph(s, seed)
	d := t.rec.end(id)
	if err == nil {
		t.layer["graph.build_s"] += seconds(d)
		t.layer["graph.arcs"] += float64(2 * g.M())
	}
	return g, err
}

func (t *tracer) netInit(g *graph.Graph, seed uint64) *phone.Net {
	if t == nil {
		return phone.NewNet(g, seed)
	}
	id := t.rec.begin(t.op, "phone.net_init", t.opID)
	nt := phone.NewNet(g, seed)
	t.layer["phone.net_init_s"] += seconds(t.rec.end(id))
	return nt
}

// coreRun times one *Over call, handing it the timing transport factory.
func (t *tracer) coreRun(run func(tf core.TransportFactory)) {
	if t == nil {
		run(core.SyncTransport)
		return
	}
	t.runID = t.rec.begin(t.op, "core.run", t.opID)
	stepBefore, selfBefore := t.layer["phone.step_s"], t.layer["trace_self_s"]
	t.mark = -1
	run(t.transport)
	d := t.rec.end(t.runID)
	if t.mark >= 0 {
		t.layer["driver_gap_s"] += seconds(t.rec.spans[t.runID-1].End - t.mark)
	}
	t.layer["core.run_s"] += seconds(d)
	t.layer["core.hooks_s"] += seconds(d) - (t.layer["phone.step_s"] - stepBefore) - (t.layer["trace_self_s"] - selfBefore)
	t.runID = 0
}

// encode times encoding the op's sweep record as one JSONL line.
func (t *tracer) encode(s runner.Scenario, msgsPerNode float64, steps int, completed bool) {
	if t == nil {
		return
	}
	cr := cellResult(s, msgsPerNode, steps, completed)
	start := t.rec.now()
	if err := runner.WriteJSONL(io.Discard, []runner.CellResult{cr}); err != nil {
		panic(err) // io.Discard never fails
	}
	t.layer["runner.encode_s"] += seconds(t.rec.now() - start)
}

// serve times one gossipd.Serve call and reads its report.
func (t *tracer) serve(cfg gossipd.Config) (*gossipd.Report, error) {
	if t == nil {
		return gossipd.Serve(cfg)
	}
	start := t.rec.now()
	rep, err := gossipd.Serve(cfg)
	d := t.rec.now() - start
	if err != nil {
		return rep, err
	}
	var stepsMax int32
	for _, s := range rep.LocalSteps {
		stepsMax = max(stepsMax, s)
	}
	t.layer["gossipd.boot_s"] += seconds(d - int64(rep.Elapsed))
	t.layer["gossipd.run_s"] += rep.Elapsed.Seconds()
	t.layer["gossipd.dials_per_node"] += phone.PerNode(rep.Dials, rep.N)
	t.layer["gossipd.wire_bytes_per_node"] += phone.PerNode(rep.WireBytes, rep.N)
	t.layer["gossipd.local_steps_max"] += float64(stepsMax)
	return rep, nil
}

// transport is the TransportFactory of a traced op: core.SyncTransport
// over machines wrapped to time their callbacks, behind a Transport that
// times Step.
func (t *tracer) transport(ms []phone.Machine) phone.Transport {
	n := len(ms)
	// The shards mirror par.For's split of [0, n), so a phase's wall time
	// is close to its busiest shard's callback time.
	workers := max(min(runtime.GOMAXPROCS(0), (n+255)/256), 1)
	tt := &timedTransport{tr: t, chunk: (n + workers - 1) / workers, ms: make([]timedMachine, n)}
	machines := make([]phone.Machine, n)
	for v, m := range ms {
		tt.ms[v] = timedMachine{inner: m, t: tt, id: int32(v), tick: uint32(v)}
		machines[v] = &tt.ms[v]
	}
	tt.inner = core.SyncTransport(machines)
	t.mark = t.rec.now()
	return tt
}

// sampleEvery is how often a callback is timed. Reading the clock costs
// tens of nanoseconds, as much as many callbacks, so one call in
// sampleEvery is timed and each phase's busy time is estimated as its
// timed calls' mean times its exact call count.
const sampleEvery = 16

type timedTransport struct {
	tr    *tracer
	inner phone.Transport
	chunk int
	ms    []timedMachine
	// pulled is set by the step's first OnOpen: Sync runs every OnOpen
	// after every push delivery, so later OnReceive calls are responses.
	pulled atomic.Bool
}

func (tt *timedTransport) N() int       { return tt.inner.N() }
func (tt *timedTransport) Close() error { return tt.inner.Close() }

func (tt *timedTransport) Step(step int32) phone.StepTally {
	t, r := tt.tr, tt.tr.rec
	id := r.begin(t.op, "phone.step", t.runID)
	t.layer["driver_gap_s"] += seconds(r.spans[id-1].Start - t.mark)
	tt.pulled.Store(false)
	tally := tt.inner.Step(step)
	d := r.end(id)

	attrs := map[string]float64{
		"step": float64(step), "opened": float64(tally.Opened),
		"pushes": float64(tally.Pushes), "responses": float64(tally.Responses),
	}
	// Per shard and phase: calls, timed calls and their summed time.
	shards := (len(tt.ms) + tt.chunk - 1) / tt.chunk
	sums := make([][nPhases]callSum, shards)
	var all [nPhases]callSum
	for v := range tt.ms {
		m := &tt.ms[v]
		sh := &sums[v/tt.chunk]
		for ph := range m.count {
			c := m.count[ph]
			sh[ph].add(c)
			all[ph].add(c)
		}
		m.count = [nPhases]callCount{}
	}
	var cbWall float64
	for ph := 0; ph < nPhases; ph++ {
		var busy, busiest float64
		for sh := range sums {
			s := sums[sh][ph]
			b := s.perCall(all[ph]) * float64(s.calls)
			busy += b
			busiest = max(busiest, b)
		}
		cbWall += busiest
		attrs[phaseNames[ph]+"_ns"] = busy
		attrs[phaseNames[ph]+"_calls"] = float64(all[ph].calls)
		t.layer[phaseNames[ph]+"_s"] += busy / 1e9
		t.layer[phaseNames[ph]+"_calls"] += float64(all[ph].calls)
	}
	attrs["self_ns"] = float64(d) - cbWall
	r.spans[id-1].Attrs = attrs

	t.layer["phone.step_s"] += seconds(d)
	t.layer["phone.step_self_s"] += (float64(d) - cbWall) / 1e9
	t.layer["phone.steps"]++
	t.layer["phone.channels_opened"] += float64(tally.Opened)
	t.layer["phone.responses"] += float64(tally.Responses)
	// The bookkeeping above is the tracer's own time, not the driver's.
	t.mark = r.now()
	t.layer["trace_self_s"] += seconds(t.mark - r.spans[id-1].End)
	return tally
}

type callSum struct{ calls, timed, ns int64 }

func (s *callSum) add(c callCount) {
	s.calls += int64(c.calls)
	s.timed += int64(c.timed)
	s.ns += c.ns
}

// perCall estimates the mean nanoseconds per call from the timed calls,
// falling back to the phase-wide mean for a shard with none timed.
func (s callSum) perCall(all callSum) float64 {
	switch {
	case s.timed > 0:
		return float64(s.ns) / float64(s.timed)
	case all.timed > 0:
		return float64(all.ns) / float64(all.timed)
	}
	return 0
}

type callCount struct {
	calls, timed uint32
	ns           int64
}

// timedMachine counts and samples one node's callbacks. Sync invokes a
// node's callbacks from one goroutine per phase, and OnOpen once per step
// per caller, so each count has one writer: OnOpen is charged to the
// caller, the rest to the node itself.
type timedMachine struct {
	inner phone.Machine
	t     *timedTransport
	id    int32
	tick  uint32 // callbacks so far, offset by the node id so samples rotate
	count [nPhases]callCount
}

// begin counts a call to v in phase ph and, for a sampled call, returns
// its start time (else -1).
func (tt *timedTransport) begin(v int32, ph int) int64 {
	m := &tt.ms[v]
	m.count[ph].calls++
	m.tick++
	if m.tick%sampleEvery != 0 {
		return -1
	}
	return tt.tr.rec.now()
}

func (tt *timedTransport) end(v int32, ph int, start int64) {
	if start < 0 {
		return
	}
	c := &tt.ms[v].count[ph]
	c.timed++
	c.ns += max(tt.tr.rec.now()-start-tt.tr.rec.clockCost, 0)
}

func (m *timedMachine) OnStep(step int32) (int32, any) {
	v := m.id
	start := m.t.begin(v, phStep)
	dial, push := m.inner.OnStep(step)
	m.t.end(v, phStep, start)
	return dial, push
}

func (m *timedMachine) OnOpen(from int32) any {
	if !m.t.pulled.Load() {
		m.t.pulled.Store(true)
	}
	start := m.t.begin(from, phOpen)
	resp := m.inner.OnOpen(from)
	m.t.end(from, phOpen, start)
	return resp
}

func (m *timedMachine) OnReceive(from int32, payload any) {
	ph := phPush
	if m.t.pulled.Load() {
		ph = phResp
	}
	v := m.id
	start := m.t.begin(v, ph)
	m.inner.OnReceive(from, payload)
	m.t.end(v, ph, start)
}

func (m *timedMachine) OnStepEnd(step int32) {
	v := m.id
	start := m.t.begin(v, phEnd)
	m.inner.OnStepEnd(step)
	m.t.end(v, phEnd, start)
}
