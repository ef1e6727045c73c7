package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the benchmark's
// metric contract; BENCHMARK.json declares the same names and units (the
// tests check that the two agree).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_s_p50", "s", "lower"},
	{"op_s_tail", "s", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"msgs_per_node", "msgs/node", "lower"},
	{"rounds", "rounds", "lower"},
}

// perLayer is what a traced run reports. A layer a workload never reaches
// (or, for phone.net_init_s, cannot time from outside the program) reads 0.
var perLayer = []metricDef{
	{"graph.build_s", "s", "lower"},
	{"graph.arcs", "count", "lower"},
	{"graph.build_ns_per_arc", "ns", "lower"},
	{"phone.net_init_s", "s", "lower"},
	{"phone.step_s", "s", "lower"},
	{"phone.step_self_s", "s", "lower"},
	{"phone.steps", "count", "lower"},
	{"phone.channels_opened", "count", "lower"},
	{"phone.responses", "count", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.hooks_s", "s", "lower"},
	{"core.on_step_s", "s", "lower"},
	{"core.on_open_s", "s", "lower"},
	{"core.on_receive_s", "s", "lower"},
	{"core.on_step_end_s", "s", "lower"},
	{"core.callbacks", "count", "lower"},
	{"msg.transfer_s", "s", "lower"},
	{"msg.round_s", "s", "lower"},
	{"msg.transfers", "count", "lower"},
	{"runtime.mallocs_per_op", "count", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_cpu_s_per_op", "s", "lower"},
	{"runner.encode_s", "s", "lower"},
	{"gossipd.boot_s", "s", "lower"},
	{"gossipd.run_s", "s", "lower"},
	{"gossipd.dials_per_node", "count", "lower"},
	{"gossipd.wire_bytes_per_node", "bytes", "lower"},
	{"gossipd.local_steps_max", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// atRank is the value of rank r (1-based) in xs sorted ascending; xs is
// not modified.
func atRank(xs []float64, r int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[r-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailRank is the rank of the highest percentile that still has at least
// ten samples beyond it, never below the median.
func tailRank(n int) int {
	return max(n-10, n/2+1)
}

// poolMean is the mean, over inputs in input order, of each input's
// median sample. A run that completes a different number of ops still
// reports over the same input pool, and a value an input determines
// exactly comes out the same to the last bit.
func poolMean(ss []sample, f func(sample) float64) float64 {
	byInput := map[int][]float64{}
	for _, s := range ss {
		byInput[s.input] = append(byInput[s.input], f(s))
	}
	if len(byInput) == 0 {
		return math.NaN()
	}
	inputs := make([]int, 0, len(byInput))
	for in := range byInput {
		inputs = append(inputs, in)
	}
	sort.Ints(inputs)
	var total float64
	for _, in := range inputs {
		total += median(byInput[in])
	}
	return total / float64(len(inputs))
}
