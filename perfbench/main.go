// Command perfbench is the repository's benchmark. It runs one workload
// as a closed loop with one client — each op starts when the previous one
// returns — for a fixed time, checks every op's output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer breakdown) as the
// last line of standard output:
//
//	perfbench --workload pushpull-exact-16k --seed 1 --seconds 55 --trace 0
//
// Run it through perfbench/run.sh from the repository root, which builds
// it from source first. README.md in this directory describes the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A run times at least minSetupRuns fresh processes to their first op,
// and more, up to maxSetupRuns, while they have taken less than
// setupBudget; setup_s is their median. A workload whose first op is short
// gets more of them, so its median is as steady as a long one's.
const (
	minSetupRuns = 5
	maxSetupRuns = 25
	setupBudget  = 2 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: every op input derives from it")
	secs := fs.Float64("seconds", 55, "how long the closed loop measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for result records and spans")
	setupChild := fs.Bool("setup-child", false, "run the first op, print \"ready\" and exit (setup_s timing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *setupChild {
		if o := w.op(makeInputs(*seed, 1)[0], nil); o.err != nil {
			fmt.Fprintln(stderr, "perfbench: first op failed:", o.err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	b := &bench{w: w, seed: *seed, dur: time.Duration(*secs * float64(time.Second)), ins: makeInputs(*seed, w.pool)}
	host := collectHostFacts(".", w, *seed)
	if err := referenceCheck("."); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference check failed, no numbers reported:", err)
		return 1
	}
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Host = host
	if err := rep.write(*out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w    workload
	seed uint64
	dur  time.Duration
	ins  []input

	attempted, failed int
	errs              []string
	// first is each input's first outcome; on a simulator workload every
	// later op on that input, traced or not, must reproduce it exactly.
	first map[int]outcome
}

// sample is one measured op.
type sample struct {
	input   int
	seconds float64
	out     outcome
	rt      rtStats
	layer   map[string]float64 // traced ops only
}

func (b *bench) measure(in input, tr *tracer) sample {
	before := readRuntime()
	start := time.Now()
	o := b.w.op(in, tr)
	d := time.Since(start)
	s := sample{input: in.index, seconds: d.Seconds(), out: o, rt: readRuntime().minus(before)}
	if tr != nil {
		s.layer = tr.finish()
	}
	b.check(s)
	return s
}

func (b *bench) check(s sample) {
	b.attempted++
	fail := func(err error) {
		if len(b.errs) < 8 {
			b.errs = append(b.errs, fmt.Sprintf("input %d: %v", s.input, err))
		}
	}
	if s.out.err != nil {
		b.failed++
		fail(s.out.err)
		return
	}
	if !b.w.exact {
		return
	}
	if b.first == nil {
		b.first = map[int]outcome{}
	}
	f, ok := b.first[s.input]
	if !ok {
		b.first[s.input] = s.out
		return
	}
	if f.msgsPerNode != s.out.msgsPerNode || f.rounds != s.out.rounds {
		b.failed++
		fail(fmt.Errorf("not reproducible: msgs/node %v rounds %v, first run gave %v and %v",
			s.out.msgsPerNode, s.out.rounds, f.msgsPerNode, f.rounds))
	}
}

// loop runs op(i) for i = 0, 1, ... until the run time has passed and every
// input has been used at least once. It returns the loop's wall time.
func (b *bench) loop(op func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < len(b.ins) || time.Since(start) < b.dur; i++ {
		op(i)
	}
	return time.Since(start)
}

func (b *bench) untraced() (*report, error) {
	setups, setupRSS, err := b.setupTimes()
	if err != nil {
		return nil, err
	}
	b.measure(b.ins[0], nil) // the parent's own first op: untimed

	var ss []sample
	cpu := readCPUTicks()
	wall := b.loop(func(i int) { ss = append(ss, b.measure(b.ins[i%len(b.ins)], nil)) })
	steal := readCPUTicks().stealFrac(cpu)
	times := opSeconds(ss)
	rank := tailRank(len(times))
	rep := b.newReport(false)
	rep.Samples = len(times)
	rep.TailPercentile = 100 * float64(rank) / float64(len(times))
	rep.SetupSamples = setups
	rep.OpSeconds = times
	rep.StealFrac = steal
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", float64(len(ss))/wall.Seconds())
	rep.set("op_s_p50", median(times))
	rep.set("op_s_tail", atRank(times, rank))
	rep.set("alloc_mb_per_op", poolMean(ss, func(s sample) float64 { return float64(s.rt.bytes) / 1e6 }))
	// A fresh process's peak RSS through its first op. The loop's own peak
	// depends on where GC cycles fall among the ops' large allocations and
	// varies twofold from run to run, so it is only recorded.
	rep.set("peak_rss_mb", median(setupRSS))
	rep.LoopPeakRSS = peakRSSMB()
	rep.set("ok_ratio", float64(b.attempted-b.failed)/float64(b.attempted))
	rep.setOutcome(ss)
	rep.set("msgs_per_node", rep.Outcome["msgs_per_node"])
	rep.set("rounds", rep.Outcome["rounds"])
	return rep, nil
}

// traced interleaves untraced and traced ops on the same inputs (the order
// alternating pair by pair), so the tracing overhead is measured under the
// same conditions and every traced outcome is checked against an untraced
// one.
func (b *bench) traced() (*report, error) {
	b.measure(b.ins[0], nil)

	rec := newRecorder()
	var plain, traced []sample
	b.loop(func(i int) {
		in := b.ins[i%len(b.ins)]
		runTraced := func() { traced = append(traced, b.measure(in, newTracer(rec, len(traced)+1))) }
		runPlain := func() { plain = append(plain, b.measure(in, nil)) }
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
	})

	// The runtime's counters come from untraced ops, so the tracer's own
	// allocations do not count.
	mallocs := poolMean(plain, func(s sample) float64 { return float64(s.rt.objects) })
	if b.w.exact {
		mallocs = b.countMallocs()
	}
	rep := b.newReport(true)
	rep.Samples = len(traced)
	rep.set("runtime.mallocs_per_op", mallocs)
	layer := func(key string) float64 {
		return poolMean(traced, func(s sample) float64 { return s.layer[key] })
	}
	for _, k := range []string{"graph.build_s", "graph.arcs", "phone.net_init_s", "phone.step_s",
		"phone.step_self_s", "phone.steps", "phone.channels_opened", "phone.responses",
		"core.run_s", "core.hooks_s", "runner.encode_s", "gossipd.boot_s", "gossipd.run_s",
		"gossipd.dials_per_node", "gossipd.wire_bytes_per_node", "gossipd.local_steps_max"} {
		rep.set(k, layer(k))
	}
	if arcs := layer("graph.arcs"); arcs > 0 {
		rep.set("graph.build_ns_per_arc", layer("graph.build_s")*1e9/arcs)
	}
	onReceive := layer("on_receive_push_s") + layer("on_receive_resp_s")
	rep.set("core.on_step_s", layer("on_step_s"))
	rep.set("core.on_open_s", layer("on_open_s"))
	rep.set("core.on_receive_s", onReceive)
	rep.set("core.on_step_end_s", layer("on_step_end_s"))
	var calls float64
	for _, ph := range phaseNames {
		calls += layer(ph + "_calls")
	}
	rep.set("core.callbacks", calls)
	if b.w.stateBytes > 0 {
		// On the tracker-backed workloads a machine's OnReceive is one
		// tracker Transfer, and the driver's hooks are the tracker's
		// BeginRound copy and EndRound.
		rep.set("msg.transfer_s", onReceive)
		rep.set("msg.round_s", layer("driver_gap_s"))
		rep.set("msg.transfers", layer("on_receive_push_calls")+layer("on_receive_resp_calls"))
	}
	rep.set("runtime.gc_cycles_per_op", mean(plain, func(s sample) float64 { return float64(s.rt.cycles) }))
	rep.set("runtime.gc_cpu_s_per_op", mean(plain, func(s sample) float64 { return s.rt.gcCPU }))
	rep.set("trace.overhead_frac", median(opSeconds(traced))/median(opSeconds(plain))-1)
	rep.setOutcome(traced)
	rep.spans = rec.spans
	return rep, nil
}

// countMallocs runs each input once more with one P and the collector
// off, after one uncounted op, and returns the mean allocation count. With one P, par.For runs
// inline, so neither goroutine descriptors nor GC cycles add runtime
// allocations that depend on scheduling: the count is the program's own,
// and exact.
func (b *bench) countMallocs() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.measure(b.ins[0], nil) // one-time allocations of the single-P path
	runtime.GC()
	var total float64
	for _, in := range b.ins {
		s := b.measure(in, nil)
		total += float64(s.rt.objects)
		runtime.GC()
	}
	return total / float64(len(b.ins))
}

// setupTimes starts fresh processes of this benchmark, one at a
// time, and times each from its start to the end of its first op. It also
// returns each one's peak RSS.
func (b *bench) setupTimes() (ts, rss []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	begin := time.Now()
	for i := 0; i < minSetupRuns || i < maxSetupRuns && time.Since(begin) < setupBudget; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", b.w.name, "--seed", strconv.FormatUint(b.seed, 10))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		line, _ := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(start)
		if err := cmd.Wait(); err != nil || line != "ready\n" {
			return nil, nil, fmt.Errorf("setup process: %v", errors.Join(err, fmt.Errorf("printed %q", line)))
		}
		ts = append(ts, d.Seconds())
		rss = append(rss, rssMB(cmd.ProcessState.SysUsage().(*syscall.Rusage)))
	}
	return ts, rss, nil
}

func opSeconds(ss []sample) []float64 {
	ts := make([]float64, len(ss))
	for i, s := range ss {
		ts[i] = s.seconds
	}
	return ts
}

func okSamples(ss []sample) []sample {
	var ok []sample
	for _, s := range ss {
		if s.out.err == nil {
			ok = append(ok, s)
		}
	}
	return ok
}

func mean(ss []sample, f func(sample) float64) float64 {
	var t float64
	for _, s := range ss {
		t += f(s)
	}
	return t / float64(len(ss))
}

// rtStats are the runtime's cumulative counters, or a difference of two
// readings.
type rtStats struct {
	bytes, objects, cycles uint64
	gcCPU                  float64
}

// gcCPU reads the runtime's estimate of CPU time spent in GC.
var gcCPU = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// readRuntime uses ReadMemStats, which flushes every P's allocation cache,
// so the allocation counts of an op that allocates deterministically come
// out exact.
func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPU)
	return rtStats{bytes: ms.TotalAlloc, objects: ms.Mallocs, cycles: uint64(ms.NumGC), gcCPU: gcCPU[0].Value.Float64()}
}

func (a rtStats) minus(b rtStats) rtStats {
	return rtStats{a.bytes - b.bytes, a.objects - b.objects, a.cycles - b.cycles, a.gcCPU - b.gcCPU}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return rssMB(&ru)
}

// cpuTicks are the aggregate CPU times of /proc/stat's "cpu" line.
type cpuTicks []uint64

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil
	}
	var t cpuTicks
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		t = append(t, v)
	}
	return t
}

// stealFrac is the share of ticks since before that were stolen (the
// eighth field), or -1 where /proc/stat does not say.
func (t cpuTicks) stealFrac(before cpuTicks) float64 {
	if len(t) < 8 || len(before) != len(t) {
		return -1
	}
	var total uint64
	for i := range t {
		total += t[i] - before[i]
	}
	if total == 0 {
		return -1
	}
	return float64(t[7]-before[7]) / float64(total)
}

func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) * 1024 / 1e6 } // Maxrss is in KiB on Linux

// report is a run's result: the contract's last line plus the facts that
// travel with it.
type report struct {
	Host           hostFacts `json:"host"`
	Traced         bool      `json:"traced"`
	Correct        bool      `json:"correct"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	Errors         []string  `json:"errors,omitempty"`
	Samples        int       `json:"samples"`
	TailPercentile float64   `json:"tail_percentile,omitempty"`
	SetupSamples   []float64 `json:"setup_samples_s,omitempty"`
	LoopPeakRSS    float64   `json:"loop_peak_rss_mb,omitempty"`
	OpSeconds      []float64 `json:"op_seconds"`
	// Outcome is the paper's two outputs over the input pool; a traced run
	// reports it too, so the two runs can be compared at one seed.
	Outcome map[string]float64 `json:"outcome"`
	// StealFrac is the share of the host's CPU time stolen by the
	// hypervisor during the timed loop, a sign of a contended host.
	StealFrac float64                `json:"steal_frac"`
	Metrics   map[string]metricValue `json:"metrics"`
	defs      []metricDef
	spans     []span
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) newReport(traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := &report{Traced: traced, Attempted: b.attempted, Failed: b.failed, Errors: b.errs,
		Correct: b.failed == 0, Metrics: map[string]metricValue{}, defs: defs}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{0, d.unit}
	}
	return r
}

func (r *report) setOutcome(ss []sample) {
	ok := okSamples(ss)
	r.Outcome = map[string]float64{
		"msgs_per_node": poolMean(ok, func(s sample) float64 { return s.out.msgsPerNode }),
		"rounds":        poolMean(ok, func(s sample) float64 { return s.out.rounds }),
	}
}

func (r *report) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Correct = false
		r.Errors = append(r.Errors, name+" has no value")
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// write prints the metric table to stderr, records the full report (and a
// traced run's spans) under dir, and prints the result as stdout's last
// line.
func (r *report) write(dir string, stdout, stderr io.Writer) error {
	fmt.Fprintf(stderr, "%s seed=%d traced=%v: %d ops, %d failed\n", r.Host.Workload, r.Host.Seed, r.Traced, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintln(stderr, "  error:", e)
	}
	for _, d := range r.defs {
		fmt.Fprintf(stderr, "  %-28s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Host.Workload, r.Host.Seed, map[bool]int{false: 0, true: 1}[r.Traced])
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", base+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	if r.Traced {
		if err := writeSpans(filepath.Join(dir, "results", base+".spans.jsonl"), r.spans); err != nil {
			return err
		}
	}
	hostLine, err := json.Marshal(map[string]any{"host": r.Host, "samples": r.Samples,
		"tail_percentile": r.TailPercentile, "steal_frac": r.StealFrac, "outcome": r.Outcome})
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", hostLine, last)
	return err
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
