package main

import (
	"encoding/json"
	"math"
	"runtime/metrics"

	"capybara/internal/core"
	"capybara/internal/experiments"
	"capybara/internal/fleet"
)

// Engine counters are read by field name from the JSON form of
// fleet.Result and of the daemon's ?cohorts=1 sidecars, never through a
// compiled field reference: when a layer or its stats are deleted the
// benchmark still builds and that layer's metrics report as absent.

// tally sums named counters; a key is "<group>.<field>", where a
// cohort-class group is prefixed ("capyp_steady:Fuse.Steps").
type tally map[string]float64

// add adds every numeric field of fields, a JSON object, under group.
func (t tally) add(group string, fields any) {
	obj, _ := fields.(map[string]any)
	for f, v := range obj {
		if x, ok := v.(float64); ok {
			t[group+"."+f] += x
		}
	}
}

// addResult adds res's fleet-wide engine stats plus the per-cohort fuse
// stats of the two cohort classes the per-layer metrics single out.
func (t tally) addResult(res *fleet.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var obj map[string]any
	if err := json.Unmarshal(b, &obj); err != nil {
		return err
	}
	for _, g := range []string{"Cache", "Batch", "Fuse"} {
		t.add(g, obj[g])
	}
	perCohort, _ := obj["CohortFuse"].([]any)
	for i, c := range res.Cohorts {
		if i >= len(perCohort) {
			break
		}
		if c.Cohort.Variant == core.CapyP && c.Cohort.Scenario == fleet.Steady {
			t.add("capyp_steady:Fuse", perCohort[i])
		}
		if c.Cohort.Scenario == fleet.PWM {
			t.add("pwm:Fuse", perCohort[i])
		}
	}
	return nil
}

// sum returns the total of the named counters; ok is false when any is
// missing (its layer is gone).
func (t tally) sum(keys ...string) (total float64, ok bool) {
	for _, k := range keys {
		v, has := t[k]
		if !has {
			return 0, false
		}
		total += v
	}
	return total, true
}

// engineLayers derives the engine per-layer metrics from t. put gets
// ok=false for a metric whose counters are absent or whose base is 0.
func engineLayers(t tally, put func(name string, v float64, ok bool)) {
	ratio := func(name string, num, den []string) {
		n, okN := t.sum(num...)
		d, okD := t.sum(den...)
		put(name, n/d, okN && okD && d != 0)
	}
	one := func(k string) []string { return []string{k} }
	ratio("power.memo_hit_rate", one("Cache.Hits"), []string{"Cache.Hits", "Cache.Misses"})
	ratio("sim.opcache_replay_rate", one("Batch.Hits"), []string{"Batch.Hits", "Batch.Misses"})
	ratio("sim.opcache_vector_rate", one("Batch.Vector"), one("Batch.Hits"))
	ratio("sim.opcache_mean_width", []string{"Batch.Hits", "Batch.Records"}, one("Batch.Records"))
	ratio("task.fused_rate", one("Fuse.Replays"), one("Fuse.Steps"))
	ratio("task.fused_rate.capyp_steady", one("capyp_steady:Fuse.Replays"), one("capyp_steady:Fuse.Steps"))
	ratio("task.fused_rate.pwm", one("pwm:Fuse.Replays"), one("pwm:Fuse.Steps"))
	ratio("task.fuse_hint_rate", one("Fuse.Hint"), one("Fuse.Replays"))
	ratio("task.cohort_spin_rate", one("Fuse.SpinShared"), one("Fuse.Spins"))
	ratio("harvest.phase_hit_rate", one("Fuse.PhaseHits"), one("Fuse.Replays"))
	// Spin fold is spins per spin plan built; a plan is built by every
	// spin that could not reuse one.
	spins, ok1 := t.sum("Fuse.Spins")
	shared, ok2 := t.sum("Fuse.SpinShared")
	put("task.spin_fold_x", spins/(spins-shared), ok1 && ok2 && spins > shared)
}

// runtimeSample snapshots the allocator and GC CPU counters.
type runtimeSample struct{ bytes, objects, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.bytes - b.bytes, a.objects - b.objects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.bytes + b.bytes, a.objects + b.objects, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// paperFig8 is the paper's Fig. 8 accuracy, in percent correct, as
// EXPERIMENTS.md transcribes it: "TA 46 % Fixed → 98 % Capy; GRC 18 %
// Fixed → 75/76 % Capy-P with 0 % under Capy-R; CSR 56 % Fixed → ≥89 %
// Capy" (75 % is GestureFast's Capy-P, 76 % GestureCompact's). The
// paper gives no continuous-power value, so those cells are left out.
var paperFig8 = map[string]map[core.Variant]float64{
	"TempAlarm":      {core.Fixed: 46, core.CapyR: 98, core.CapyP: 98},
	"GestureFast":    {core.Fixed: 18, core.CapyR: 0, core.CapyP: 75},
	"GestureCompact": {core.Fixed: 18, core.CapyR: 0, core.CapyP: 76},
	"CorrSense":      {core.Fixed: 56, core.CapyR: 89, core.CapyP: 89},
}

// fig8ErrPP is the mean absolute gap, in percentage points, between the
// simulated and the paper's Fig. 8 accuracy over the cells the paper
// gives.
func fig8ErrPP(m *experiments.Matrix) float64 {
	var sum float64
	var n int
	for app, cells := range paperFig8 {
		for v, paper := range cells {
			run := m.Runs[app][v]
			if run == nil {
				return math.NaN()
			}
			sum += math.Abs(100*run.Accuracy().FractionCorrect() - paper)
			n++
		}
	}
	return sum / float64(n)
}
