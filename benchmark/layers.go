package main

import (
	"sort"
	"strings"
	"time"
)

// timing maps a span name onto a per-layer timing metric. The metric is
// reported as <base>.p50 and <base>.tail, the tail being the highest
// percentile with at least minBeyond samples beyond it.
type timing struct {
	span, base string
	unit       time.Duration
}

var variantNames = []string{"base", "fatal", "trap", "csr", "all"}

var jobKinds = []string{"compile", "simulate", "chaos", "cosim", "bveq"}

// timings lists the span-backed timings. Derived timings that are not a
// span's duration (ns per simulated cycle) come from pass.samples.
var timings = []timing{
	{"parser.Parse", "parser.parse_us", time.Microsecond},
	{"check.Check", "check.check_us", time.Microsecond},
	{"core.TranslateProgram", "core.translate_us", time.Microsecond},
	{"Design.NewMachine", "sim.build_us", time.Microsecond},
	{"golden.Run", "golden.run_us", time.Microsecond},
	{"VariantTarget.Build", "bveq.point_build_us", time.Microsecond},
	{"bveq.CheckPoint", "bveq.point_check_us", time.Microsecond},
	{"synth.Verilog", "synth.verilog_us", time.Microsecond},
	{"rtl.Parse", "rtl.parse_us", time.Microsecond},
	{"rtl.Elaborate", "rtl.elaborate_us", time.Microsecond},
	{"Client.Submit", "xpdld.submit_ms", time.Millisecond},
	{"Client.Report", "xpdld.report_ms", time.Millisecond},
	{"faultfs.WriteFile", "faultfs.write_us", time.Microsecond},
	{"faultfs.Sync", "faultfs.sync_us", time.Microsecond},
	{"faultfs.SyncDir", "faultfs.syncdir_us", time.Microsecond},
	{"faultfs.Rename", "faultfs.rename_us", time.Microsecond},
}

// derived lists the per-layer timings the workloads compute themselves.
var derived = []struct{ base, unit string }{
	{"sim.run_ns_per_cycle", "ns/cycle"},
	{"cosim.ns_per_cycle", "ns/cycle"},
}

// perUnitValues are exact per-layer figures the workloads set in
// pass.values: counts per whole unit of work, which repeat bit for bit
// for a given seed, and end-of-run gauges.
var perUnitValues = []struct{ name, unit, better string }{
	{"sim.cycles", "cycles", "lower"},
	{"sim.retired", "count", "higher"},
	{"sim.cpi", "cycles/insn", "lower"},
	{"sim.firings_per_cycle", "firings/cycle", "higher"},
	{"bveq.points", "count", "higher"},
	{"bveq.programs", "count", "higher"},
	{"bveq.spot_checks", "count", "higher"},
	{"cosim.cycles", "cycles", "lower"},
	{"xpdld.cache_hit_ratio", "ratio", "higher"},
	{"xpdld.cache_lookups", "count", "higher"},
	{"xpdld.compiles_total", "count", "lower"},
	{"xpdld.checkpoints_written_total", "count", "lower"},
	{"xpdld.designs_cached", "count", "lower"},
	{"xpdld.quota_denied", "count", "lower"},
	{"xpdld.overload_denied", "count", "lower"},
	{"faultfs.ops", "count", "lower"},
	{"faultfs.bytes_written", "bytes", "lower"},
	{"proc.heap_inuse_mb", "MiB", "lower"},
}

// selfLayers names the layers whose self time is reported as a share of
// the traced operations' total time. A key matches every span whose
// name starts with one of its prefixes.
var selfLayers = []struct {
	key      string
	prefixes []string
}{
	{"op", []string{"op."}},
	{"frontend", []string{"parser.", "check.", "core."}},
	{"sim.build", []string{"Design.NewMachine"}},
	{"sim.run", []string{"Machine.Run"}},
	{"golden", []string{"golden."}},
	{"bveq", []string{"bveq.", "VariantTarget."}},
	{"synth", []string{"synth."}},
	{"rtl", []string{"rtl."}},
	{"cosim", []string{"cosim."}},
	{"xpdld.client", []string{"Client."}},
	{"xpdld.wait", []string{"xpdld.turnaround."}},
	{"faultfs", []string{"faultfs."}},
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerDefs is the full per-layer metric list, in the order
// BENCHMARK.json records it.
func perLayerDefs() []metricDef {
	var out []metricDef
	add := func(base, unit string) {
		out = append(out, metricDef{base + ".p50", unit, "lower"}, metricDef{base + ".tail", unit, "lower"})
	}
	for _, t := range timings {
		add(t.base, unitName(t.unit))
	}
	for _, k := range jobKinds {
		add("xpdld.turnaround_ms."+k, "ms")
	}
	for _, d := range derived {
		add(d.base, d.unit)
	}
	for _, v := range variantNames {
		out = append(out, metricDef{"bveq.target_ms." + v, "ms", "lower"}, metricDef{"bveq.verify_ms." + v, "ms", "lower"})
	}
	for _, v := range perUnitValues {
		out = append(out, metricDef{v.name, v.unit, v.better})
	}
	for _, l := range selfLayers {
		out = append(out, metricDef{"self." + l.key + "_pct", "%", "lower"})
	}
	out = append(out, metricDef{"trace.overhead_pct", "%", "lower"}, metricDef{"trace.spans", "count", "lower"})
	return out
}

func unitName(d time.Duration) string {
	switch d {
	case time.Microsecond:
		return "us"
	case time.Millisecond:
		return "ms"
	}
	return "ns"
}

// perLayerMetrics fills every per-layer metric from the traced pass.
// A layer the workload never calls reads 0 with no samples.
func perLayerMetrics(ms map[string]metric, p *pass, spans []span) {
	for _, d := range perLayerDefs() {
		ms[d.Name] = metric{0, d.Unit}
	}
	byName := map[string][]time.Duration{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s.end-s.start)
	}
	put := func(base, unit string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		// Below 20 samples no percentile has ten beyond it; the tail
		// then falls back to the median rather than claim one.
		tp, ok := tailPercentile(len(xs))
		if !ok {
			tp = 50
		}
		ms[base+".tail"] = metric{percentile(xs, tp), unit}
		ms[base+".p50"] = metric{median(xs), unit}
	}
	for _, t := range timings {
		put(t.base, unitName(t.unit), durations(byName[t.span], t.unit))
	}
	for _, k := range jobKinds {
		put("xpdld.turnaround_ms."+k, "ms", durations(byName["xpdld.turnaround."+k], time.Millisecond))
	}
	for _, d := range derived {
		put(d.base, d.unit, p.samples[d.base])
	}
	for _, v := range variantNames {
		if xs := durations(byName["bveq.NewVariantTarget."+v], time.Millisecond); len(xs) > 0 {
			ms["bveq.target_ms."+v] = metric{median(xs), "ms"}
		}
		if xs := durations(byName["bveq.Verify."+v], time.Millisecond); len(xs) > 0 {
			ms["bveq.verify_ms."+v] = metric{median(xs), "ms"}
		}
	}
	for _, v := range perUnitValues {
		if x, ok := p.values[v.name]; ok {
			ms[v.name] = metric{x, v.unit}
		}
	}
	ms["proc.heap_inuse_mb"] = metric{heapInuseMiB(), "MiB"}

	// Self time per layer, as a share of the time the operations' root
	// spans cover.
	// Spans outside any operation (set-up) are left out.
	self := selfTimes(spans)
	root := make([]int, len(spans))
	var rootTotal time.Duration
	perLayer := map[string]time.Duration{}
	for i, s := range spans {
		root[i] = i
		if s.parent >= 0 {
			root[i] = root[s.parent]
		}
		if !strings.HasPrefix(spans[root[i]].name, "op.") {
			continue
		}
		if s.parent < 0 {
			rootTotal += s.end - s.start
		}
		for _, l := range selfLayers {
			for _, pre := range l.prefixes {
				if strings.HasPrefix(s.name, pre) {
					perLayer[l.key] += self[i]
				}
			}
		}
	}
	if rootTotal > 0 {
		for _, l := range selfLayers {
			ms["self."+l.key+"_pct"] = metric{100 * float64(perLayer[l.key]) / float64(rootTotal), "%"}
		}
	}
	ms["trace.spans"] = metric{float64(len(spans)), "count"}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
