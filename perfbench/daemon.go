package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
	"capybara/internal/runner"
)

// daemon is an in-process fleetsvc.Service over a fresh store directory,
// served on loopback HTTP exactly as capyfleet -serve-http serves it.
type daemon struct {
	dir    string
	store  *fleetsvc.Store
	svc    *fleetsvc.Service
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// startDaemon opens the store, starts the service and the listener, and
// returns once the daemon has answered a health check.
func startDaemon(ctx context.Context, root string) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan struct{})}
	if d.store, err = fleetsvc.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if d.svc, err = fleetsvc.NewService(fleetsvc.ServiceConfig{Store: d.store, Jobs: 1, MaxConcurrent: workers}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}}
	d.srv = &http.Server{Handler: d.svc.Handler()}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if _, err := d.get(ctx, "/api/v1/healthz"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the HTTP server and the service, waits for both, and
// removes the store directory.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	d.svc.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

func (d *daemon) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, body)
	if err != nil {
		return nil, err
	}
	return d.client.Do(req)
}

// get returns the body of a 200 response.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := d.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// jobStatus is the part of the daemon's JobStatus JSON the client reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	SpecHash string `json:"spec_hash"`
	Chunks   int    `json:"chunks"`
	Loaded   int    `json:"loaded"`
	Error    string `json:"error"`
}

// jobTrace is one job's client-side timeline.
type jobTrace struct {
	status                   jobStatus
	repeat                   bool
	submitted, running, done time.Time
}

// run submits spec, follows the job's status stream to its terminal
// state and fetches the CSV report: one client's closed-loop step.
func (d *daemon) run(ctx context.Context, spec fleet.Spec, tr *tracer, item *span) (*jobTrace, []byte, error) {
	pass := item.pass()
	jt := &jobTrace{}
	body, _ := json.Marshal(fleetsvc.SubmitRequest{N: spec.N, Seed: spec.Seed, Scale: spec.Scale}) // numbers only: cannot fail
	s := tr.start(item, pass, "fleetsvc", "fleetsvc.submit")
	resp, err := d.do(ctx, http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
	if err == nil {
		if resp.StatusCode != http.StatusCreated {
			err = fmt.Errorf("submit: %s", resp.Status)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&jt.status)
		}
		resp.Body.Close()
	}
	tr.end(s)
	jt.submitted = time.Now()
	if err != nil {
		return nil, nil, err
	}
	id := jt.status.ID

	s = tr.start(item, pass, "fleetsvc", "fleetsvc.stream")
	err = d.follow(ctx, jt)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if jt.status.State != fleetsvc.StateDone {
		return nil, nil, fmt.Errorf("job %s ended %s: %s", id, jt.status.State, jt.status.Error)
	}

	s = tr.start(item, pass, "fleetsvc", "fleetsvc.report")
	csv, err := d.get(ctx, "/api/v1/jobs/"+id+"/report")
	tr.end(s)
	return jt, csv, err
}

// follow reads the job's NDJSON status stream until a terminal state,
// noting when the job was first seen running and when it finished.
func (d *daemon) follow(ctx context.Context, jt *jobTrace) error {
	resp, err := d.do(ctx, http.MethodGet, "/api/v1/jobs/"+jt.status.ID+"/stream", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: %s", jt.status.ID, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var st jobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return fmt.Errorf("stream %s: %w", jt.status.ID, err)
		}
		now := time.Now()
		if st.State == fleetsvc.StateRunning && jt.running.IsZero() {
			jt.running = now
		}
		st.ID, st.SpecHash = jt.status.ID, jt.status.SpecHash
		jt.status = st
		switch st.State {
		case fleetsvc.StateDone, fleetsvc.StateFailed, fleetsvc.StateCanceled:
			jt.done = now
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream " + jt.status.ID + " ended before a terminal state")
}

// daemonSpec is submission k's spec. Every repeatEvery-th submission
// repeats a fresh spec submitted before it (drawn from the seed), so its
// chunks load from the checkpoint store; the others are fresh specs
// whose chunks are computed and written.
func daemonSpec(seed int64, k int) (spec fleet.Spec, repeat bool) {
	fresh := k - k/repeatEvery // fresh submissions before k
	if k%repeatEvery == repeatEvery-1 {
		fresh = runner.RNG(seed, k).Intn(fresh)
		repeat = true
	}
	return fleet.Spec{N: daemonN, Seed: subSeed(seed, fresh), Scale: fleetScale}, repeat
}

// daemonWorkload: workers clients, each submitting a job, following it
// to done and fetching its report, then submitting the next, until the
// budget has elapsed or daemonJobs jobs were submitted. It runs traced
// only.
func daemonWorkload(ctx context.Context, e *runEnv) (*pass, error) {
	p := newPass("daemon", daemonN)
	d, err := startDaemon(ctx, e.dir)
	if err != nil {
		return nil, err
	}
	defer d.close()

	var (
		mu    sync.Mutex
		jobs  []*jobTrace
		count atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(count.Add(1)) - 1
				if k >= minItems && (k >= daemonJobs || time.Since(start) >= e.budget) {
					return
				}
				spec, repeat := daemonSpec(e.seed, k)
				t := time.Now()
				item := e.tr.start(nil, p.workload, "perfbench", "daemon.job")
				jt, csv, err := d.run(ctx, spec, e.tr, item)
				e.tr.end(item)
				if err != nil {
					e.gate.fail(fmt.Sprintf("daemon job %d: %v", k, err))
					continue
				}
				lat := time.Since(t).Seconds()
				jt.repeat = repeat
				e.gate.fleetReport(spec, csv)
				mu.Lock()
				p.items = append(p.items, lat)
				p.inputs = append(p.inputs, k)
				jobs = append(jobs, jt)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := daemonLayers(ctx, e, p, d, jobs); err != nil {
		return nil, err
	}
	return p, nil
}

// daemonLayers derives the fleetsvc per-layer metrics. Store reads and
// writes happen inside the service, out of the benchmark's reach, so
// after the timed loop the benchmark repeats them on the daemon's own
// entries: Store.Get on the daemon's store, Store.Put into a private
// one.
func daemonLayers(ctx context.Context, e *runEnv, p *pass, d *daemon, jobs []*jobTrace) error {
	var queue, run []float64
	var loaded, chunks float64
	for _, j := range jobs {
		if !j.running.IsZero() {
			queue = append(queue, j.running.Sub(j.submitted).Seconds()*1e3)
			run = append(run, j.done.Sub(j.running).Seconds())
		}
		loaded += float64(j.status.Loaded)
		chunks += float64(j.status.Chunks)
	}
	p.layerMedian("fleetsvc.submit_ms_p50", e.tr.durations(p.workload, "fleetsvc.submit"))
	p.layerMedian("fleetsvc.queue_wait_ms_p50", queue)
	p.layerMedian("fleetsvc.run_s_p50", run)
	p.layerMedian("fleetsvc.report_ms_p50", e.tr.durations(p.workload, "fleetsvc.report"))
	p.layer("fleetsvc.memo_loaded_frac", loaded/chunks, chunks > 0)

	privDir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(privDir)
	priv, err := fleetsvc.Open(privDir)
	if err != nil {
		return err
	}
	const sampled = 32
	var gets, puts, sizes []float64
	counts := tally{}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.repeat || seen[j.status.SpecHash] || len(seen) == sampled {
			continue
		}
		seen[j.status.SpecHash] = true
		for ci := 0; ci < j.status.Chunks; ci++ {
			s := e.tr.start(nil, p.workload, "fleetsvc", "fleetsvc.Store.Get")
			cp, err := d.store.Get(j.status.SpecHash, ci)
			e.tr.end(s)
			if err != nil {
				return fmt.Errorf("perfbench: store get %s/%d: %w", j.status.ID, ci, err)
			}
			gets = append(gets, s.dur().Seconds()*1e6)
			entry, err := fleetsvc.EncodeEntry(j.status.SpecHash, ci, cp)
			if err != nil {
				return err
			}
			sizes = append(sizes, float64(len(entry)))
			s = e.tr.start(nil, p.workload, "fleetsvc", "fleetsvc.Store.Put")
			err = priv.Put(j.status.SpecHash, ci, cp)
			e.tr.end(s)
			if err != nil {
				return err
			}
			puts = append(puts, s.dur().Seconds()*1e6)
		}
		b, err := d.get(ctx, "/api/v1/jobs/"+j.status.ID+"?cohorts=1")
		if err != nil {
			return err
		}
		var st struct {
			Cohorts []map[string]any `json:"cohorts"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return err
		}
		for _, c := range st.Cohorts {
			counts.add("fuse", c["fuse"])
		}
	}
	p.layerMedian("fleetsvc.store_get_us_p50", gets)
	p.layerMedian("fleetsvc.store_put_us_p50", puts)
	p.layerMedian("fleetsvc.entry_bytes", sizes)
	steps, ok1 := counts.sum("fuse.Steps")
	replays, ok2 := counts.sum("fuse.Replays")
	p.layer("fleetsvc.fused_rate", replays/steps, ok1 && ok2 && steps > 0)
	return nil
}
