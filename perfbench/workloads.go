package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/experiments"
	"capybara/internal/fleet"
	"capybara/internal/runner"
)

// Workload sizes. The benchmark sets only spec-level inputs (N, Seed,
// Scale) and the worker count; engine knobs stay at their defaults.
const (
	// workers is every path's parallelism: fleet Jobs, daemon job slots
	// and clients, shard workers. The reference machine has nproc = 2;
	// more workers than CPUs would measure the scheduler.
	workers = 2
	// fleetN is 10 devices per cohort of the 48-cohort grid, at 5 %
	// event scale: under a second of simulation per item on 2 CPUs.
	fleetN     = 480
	fleetScale = 0.05
	// fleetSpecs is how many fleet specs a run cycles through. A spec's
	// seed draws the PWM and blackout traces of its cohorts, which moves
	// its cost by tens of percent; throughput weighs every spec alike
	// (see devicesPerSec), so the mix a run happens to finish does not
	// move it.
	fleetSpecs = 8
	// matrixSeeds is the same for the paper matrix's event schedules,
	// whose seed moves a matrix's cost by about ten percent.
	matrixSeeds = 16
	// daemonN is a one-chunk job over the grid's first 24 cohorts:
	// small enough that HTTP, journal and store overhead are a visible
	// share of a job's latency.
	daemonN = 24
	// repeatEvery: every repeatEvery-th daemon submission repeats an
	// earlier spec, so the share of repeats is 1/repeatEvery and the
	// median job stays a fresh one.
	repeatEvery = 4
	// daemonJobs caps the daemon pass's submissions: enough for its
	// medians, and few enough that every fresh spec of a default seed is
	// pinned (pin.sh pins daemonJobs - daemonJobs/repeatEvery of them).
	daemonJobs = 64
	// setupWarm set-ups run untimed before the first item.
	setupWarm = 2
	// twinEvery: in a traced pass every twinEvery-th item also runs
	// untraced on the same input, right before or after the traced run.
	twinEvery = 3
	// minItems work items run even when the budget is shorter.
	minItems = 3
)

// runEnv is what one pass needs: the seed its inputs derive from, how
// long to measure, the tracer (nil when untraced) and the gate every
// report goes through.
type runEnv struct {
	seed   int64
	budget time.Duration
	tr     *tracer
	gate   *gate
	dir    string // per-run directory under .perfbench
}

// pass is one workload's measurement.
type pass struct {
	workload string
	per      int       // devices (or matrix cells) per work item
	items    []float64 // seconds per completed work item; traced ones in a traced pass
	inputs   []int     // which of the run's inputs each item ran
	setups   []float64 // seconds per timed set-up
	twins    []twin
	layers   map[string]float64
}

// A twin is one input run traced and untraced back to back.
type twin struct {
	input         int
	traced, plain float64 // seconds
}

func newPass(w string, per int) *pass {
	return &pass{workload: w, per: per, layers: map[string]float64{}}
}

// layer records a per-layer metric unless it is absent.
func (p *pass) layer(name string, v float64, ok bool) {
	if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		p.layers[name] = v
	}
}

// layerMedian records the median of xs, absent when xs is empty.
func (p *pass) layerMedian(name string, xs []float64) {
	p.layer(name, median(xs), len(xs) > 0)
}

// layerTail records the p-th percentile of xs when enough samples lie
// beyond it.
func (p *pass) layerTail(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	p.layer(name, v, ok)
}

// serial runs item back to back until the budget has elapsed (and at
// least minItems times); item i runs input i%cycle. Before each item it
// times one set-up, unless setup is nil, so set-ups sample the machine
// over the same span as the items. An item error is a failed
// operation, counted by the gate; the loop goes on.
func serial(p *pass, e *runEnv, cycle int, setup func() error, item func(i int) error) error {
	for i := 0; setup != nil && i < setupWarm; i++ {
		if err := setup(); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; i < minItems || time.Since(start) < e.budget; i++ {
		if setup != nil {
			t := time.Now()
			if err := setup(); err != nil {
				return err
			}
			p.setups = append(p.setups, time.Since(t).Seconds())
		}
		t := time.Now()
		if err := item(i); err != nil {
			e.gate.fail(fmt.Sprintf("%s item: %v", p.workload, err))
			continue
		}
		p.items = append(p.items, time.Since(t).Seconds())
		p.inputs = append(p.inputs, i%cycle)
	}
	return nil
}

// tracedSerial is serial for a traced pass: item gets the tracer, and
// every twinEvery-th item also runs with a nil tracer on the same input,
// before or after the traced run in turn, so the tracing overhead is
// measured on the same code and input. The budget counts traced runs
// only.
func tracedSerial(p *pass, e *runEnv, cycle int, item func(i int, tr *tracer) error) {
	var traced time.Duration
	for i := 0; i < minItems || traced < e.budget; i++ {
		modes := []*tracer{e.tr}
		switch {
		case i%twinEvery != 0:
		case (i/twinEvery)%2 == 0:
			modes = []*tracer{e.tr, nil}
		default:
			modes = []*tracer{nil, e.tr}
		}
		tw := twin{input: i % cycle}
		for _, tr := range modes {
			t := time.Now()
			err := item(i, tr)
			d := time.Since(t)
			if tr != nil {
				traced += d
			}
			if err != nil {
				e.gate.fail(fmt.Sprintf("%s item: %v", p.workload, err))
				break
			}
			if tr == nil {
				tw.plain = d.Seconds()
				continue
			}
			tw.traced = d.Seconds()
			p.items = append(p.items, d.Seconds())
			p.inputs = append(p.inputs, i%cycle)
		}
		if len(modes) == 2 && tw.plain > 0 && tw.traced > 0 {
			p.twins = append(p.twins, tw)
		}
	}
}

// subSeed derives the seed of a run's i-th input from the run seed.
func subSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// fleetSpec is the spec of a fleet or sharded run's i-th item.
func fleetSpec(seed int64, i int) fleet.Spec {
	return fleet.Spec{N: fleetN, Seed: subSeed(seed, i%fleetSpecs), Scale: fleetScale}
}

func fleetConfig(s fleet.Spec) fleet.Config {
	return fleet.Config{N: s.N, Seed: s.Seed, Scale: s.Scale, Jobs: workers}
}

// simulate runs spec through the fleet.Job API: NewJob, the chunks on
// `workers` goroutines with one recycled Scratch each, then Fold. With a
// tracer, each call is a span under parent.
func simulate(ctx context.Context, spec fleet.Spec, tr *tracer, parent *span) (*fleet.Result, error) {
	pass := parent.pass()
	s := tr.start(parent, pass, "fleet", "fleet.NewJob")
	job, err := fleet.NewJob(fleetConfig(spec))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	scratch := sync.Pool{New: func() any { return job.NewScratch() }}
	partials, err := runner.Map(ctx, workers, job.NumChunks(), func(ctx context.Context, ci int) (*fleet.ChunkPartial, error) {
		ws := scratch.Get().(*fleet.Scratch)
		defer scratch.Put(ws)
		s := tr.start(parent, pass, "fleet", "fleet.RunChunk")
		defer tr.end(s)
		return job.RunChunk(ctx, ci, ws)
	})
	if err != nil {
		return nil, err
	}
	s = tr.start(parent, pass, "fleet", "fleet.Fold")
	defer tr.end(s)
	return job.Fold(partials)
}

// render writes res in both report formats, as the daemon serves them,
// and returns the CSV.
func render(res *fleet.Result, tr *tracer, parent *span) ([]byte, error) {
	var csv, js bytes.Buffer
	s := tr.start(parent, parent.pass(), "fleet", "fleet.report")
	defer tr.end(s)
	if err := res.WriteCSV(&csv); err != nil {
		return nil, err
	}
	if err := res.WriteJSON(&js); err != nil {
		return nil, err
	}
	return csv.Bytes(), nil
}

// runJob renders spec's CSV report through the fleet.Job API, untraced:
// the correctness reference.
func runJob(ctx context.Context, spec fleet.Spec) ([]byte, error) {
	res, err := simulate(ctx, spec, nil, nil)
	if err != nil {
		return nil, err
	}
	return render(res, nil, nil)
}

// fleetWorkload: fleet.Run over the full cohort grid, item after item.
// Set-up is creating the jobs of every spec the run cycles through.
func fleetWorkload(ctx context.Context, e *runEnv) (*pass, error) {
	p := newPass("fleet", fleetN)
	if e.tr == nil {
		setup := func() error {
			for k := 0; k < fleetSpecs; k++ {
				if _, err := fleet.NewJob(fleetConfig(fleetSpec(e.seed, k))); err != nil {
					return err
				}
			}
			return nil
		}
		err := serial(p, e, fleetSpecs, setup, func(i int) error {
			spec := fleetSpec(e.seed, i)
			res, err := fleet.Run(ctx, fleetConfig(spec))
			if err != nil {
				return err
			}
			var csv bytes.Buffer
			if err := res.WriteCSV(&csv); err != nil {
				return err
			}
			e.gate.fleetReport(spec, csv.Bytes())
			return nil
		})
		return p, err
	}

	// Traced runs give the spans and the engine counters; untraced twins
	// give the allocator and GC figures, read around the simulation
	// alone so that report rendering and the benchmark's own work are
	// not counted.
	var results []*fleet.Result
	var rt runtimeSample
	var simulated int
	tracedSerial(p, e, fleetSpecs, func(i int, tr *tracer) error {
		spec := fleetSpec(e.seed, i)
		item := tr.start(nil, p.workload, "perfbench", "fleet.item")
		defer tr.end(item)
		before := readRuntime()
		res, err := simulate(ctx, spec, tr, item)
		if err != nil {
			return err
		}
		if tr == nil {
			rt = rt.add(readRuntime().sub(before))
			simulated += spec.N
		} else {
			results = append(results, res)
		}
		csv, err := render(res, tr, item)
		if err != nil {
			return err
		}
		e.gate.fleetReport(spec, csv)
		return nil
	})
	chunks := e.tr.durations(p.workload, "fleet.RunChunk")
	p.layerMedian("fleet.chunk_ms_p50", chunks)
	p.layerTail("fleet.chunk_ms_p90", chunks, 0.9)
	p.layerMedian("fleet.fold_ms", e.tr.durations(p.workload, "fleet.Fold"))
	p.layerMedian("fleet.report_ms", e.tr.durations(p.workload, "fleet.report"))
	counts := tally{}
	for _, res := range results {
		if err := counts.addResult(res); err != nil {
			return nil, err
		}
	}
	engineLayers(counts, p.layer)
	dev := float64(simulated)
	p.layer("runtime.alloc_bytes_per_device", rt.bytes/dev, dev > 0)
	p.layer("runtime.mallocs_per_device", rt.objects/dev, dev > 0)
	p.layer("runtime.gc_cpu_frac", rt.gcCPU/rt.totalCPU, rt.totalCPU > 0)
	return p, nil
}

// matrixCell is one app×variant cell of the Fig. 8/9/11 matrix.
type matrixCell struct {
	app     string
	spec    apps.Spec
	variant core.Variant
}

func matrixCells() ([]matrixCell, error) {
	var cells []matrixCell
	for _, name := range apps.SpecNames() {
		spec, err := apps.SpecByName(name)
		if err != nil {
			return nil, err
		}
		for _, v := range experiments.Variants() {
			cells = append(cells, matrixCell{name, spec, v})
		}
	}
	return cells, nil
}

// build builds c's run on the schedule experiments.RunMatrixParallel
// gives it at scale 1.0: every variant of an app sees the same events.
func (c matrixCell) build(seed int64) (*apps.Run, error) {
	sched := env.Poisson(rand.New(rand.NewSource(seed)), c.spec.Events, c.spec.Mean, c.spec.Window)
	return c.spec.Build(c.variant, sched, nil, nil)
}

// matrixWorkload: experiments.RunMatrixParallel at scale 1.0, the
// matrix behind capybench -fig 8/9/11.
func matrixWorkload(ctx context.Context, e *runEnv) (*pass, error) {
	cells, err := matrixCells()
	if err != nil {
		return nil, err
	}
	p := newPass("paper-matrix", len(cells))
	if e.tr == nil {
		// Set-up is building every cell's device on every schedule the
		// run cycles through.
		setup := func() error {
			for k := 0; k < matrixSeeds; k++ {
				for _, c := range cells {
					if _, err := c.build(subSeed(e.seed, k)); err != nil {
						return err
					}
				}
			}
			return nil
		}
		err := serial(p, e, matrixSeeds, setup, func(i int) error {
			m, err := experiments.RunMatrixParallel(ctx, subSeed(e.seed, i%matrixSeeds), 1.0, workers)
			if err != nil {
				return err
			}
			return e.gate.matrixTables(m)
		})
		return p, err
	}

	// As in fleetWorkload: spans from the traced runs, allocator figures
	// from the untraced twins, around building and executing the cells.
	var cellMax, cellSum []float64
	var simSec, execSec float64
	var rt runtimeSample
	var built int
	tracedSerial(p, e, matrixSeeds, func(i int, tr *tracer) error {
		seed := subSeed(e.seed, i%matrixSeeds)
		item := tr.start(nil, p.workload, "perfbench", "matrix.item")
		defer tr.end(item)
		type cellRun struct {
			run             *apps.Run
			host, exec, sim float64
		}
		before := readRuntime()
		out, err := runner.Map(ctx, workers, len(cells), func(ctx context.Context, ci int) (cellRun, error) {
			b := tr.start(item, p.workload, "apps", "apps.Build")
			run, err := cells[ci].build(seed)
			tr.end(b)
			if err != nil {
				return cellRun{}, err
			}
			x := tr.start(item, p.workload, "apps", "apps.Execute")
			err = run.Execute()
			tr.end(x)
			c := cellRun{run: run}
			if tr != nil {
				st := run.Inst.Dev.Stats
				c.host, c.exec, c.sim = b.dur().Seconds()+x.dur().Seconds(), x.dur().Seconds(), float64(st.TimeOn+st.TimeOff)
			}
			return c, err
		})
		if err != nil {
			return err
		}
		if tr == nil {
			rt = rt.add(readRuntime().sub(before))
			built += len(cells)
		}
		m := &experiments.Matrix{Seed: seed, Runs: map[string]map[core.Variant]*apps.Run{}}
		var hmax, hsum float64
		for ci, c := range out {
			cell := cells[ci]
			if m.Runs[cell.app] == nil {
				m.Runs[cell.app] = map[core.Variant]*apps.Run{}
			}
			m.Runs[cell.app][cell.variant] = c.run
			hmax = max(hmax, c.host)
			hsum += c.host
			simSec += c.sim
			execSec += c.exec
		}
		if tr != nil {
			cellMax = append(cellMax, hmax)
			cellSum = append(cellSum, hsum)
		}
		s := tr.start(item, p.workload, "experiments", "experiments.tables")
		defer tr.end(s)
		return e.gate.matrixTables(m)
	})
	p.layerMedian("apps.build_ms", e.tr.durations(p.workload, "apps.Build"))
	p.layerMedian("apps.cell_max_s", cellMax)
	p.layerMedian("apps.cell_sum_s", cellSum)
	p.layer("sim.sim_s_per_host_s", simSec/execSec, execSec > 0)
	p.layer("runtime.alloc_bytes_per_cell", rt.bytes/float64(built), built > 0)
	return p, nil
}
