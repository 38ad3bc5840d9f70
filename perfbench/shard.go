package main

import (
	"bytes"
	"context"
	"net"
	"sort"
	"sync"
	"time"

	"capybara/internal/fleet"
	"capybara/internal/shard"
)

// shardRun runs spec through shard.Serve on loopback with `workers`
// in-process shard.Work workers and returns the CSV report. onChunk
// observes each completed chunk.
func shardRun(ctx context.Context, spec fleet.Spec, tr *tracer, item *span, onChunk func(*fleet.ChunkPartial)) ([]byte, error) {
	pass := item.pass()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			s := tr.start(item, pass, "shard", "shard.Work")
			err := shard.Work(ctx, ln.Addr().String(), 1, shard.WorkerOptions{})
			tr.end(s)
			errs <- err
		}()
	}
	opt := shard.Options{OnChunk: func(cp *fleet.ChunkPartial) error {
		onChunk(cp)
		return nil
	}}
	s := tr.start(item, pass, "shard", "shard.Serve")
	res, err := shard.Serve(ctx, ln, fleetConfig(spec), opt)
	tr.end(s)
	if err != nil {
		cancel()
	}
	for w := 0; w < workers; w++ {
		if werr := <-errs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	s = tr.start(item, pass, "fleet", "fleet.report")
	err = res.WriteCSV(&csv)
	tr.end(s)
	return csv.Bytes(), err
}

// shardWorkload: the fleet workload's specs through the shard
// coordinator and its workers, item after item. It runs traced only.
func shardWorkload(ctx context.Context, e *runEnv) (*pass, error) {
	p := newPass("sharded", fleetN)
	var (
		mu       sync.Mutex
		gaps     []float64
		partials []*fleet.ChunkPartial
	)
	const keep = 64 // partials kept for the encode/decode measurement
	err := serial(p, e, fleetSpecs, nil, func(i int) error {
		spec := fleetSpec(e.seed, i)
		item := e.tr.start(nil, p.workload, "perfbench", "shard.item")
		defer e.tr.end(item)
		var stamps []time.Time
		onChunk := func(cp *fleet.ChunkPartial) {
			mu.Lock()
			defer mu.Unlock()
			stamps = append(stamps, time.Now())
			if len(partials) < keep {
				partials = append(partials, cp)
			}
		}
		csv, err := shardRun(ctx, spec, e.tr, item, onChunk)
		if err != nil {
			return err
		}
		mu.Lock()
		sort.Slice(stamps, func(i, j int) bool { return stamps[i].Before(stamps[j]) })
		for i := 1; i < len(stamps); i++ {
			gaps = append(gaps, stamps[i].Sub(stamps[i-1]).Seconds()*1e3)
		}
		mu.Unlock()
		e.gate.fleetReport(spec, csv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.layerMedian("shard.chunk_gap_ms_p50", gaps)
	p.layerTail("shard.chunk_gap_ms_p90", gaps, 0.9)
	// Partials cross the wire as fleet.EncodePartial gob streams; time
	// that round trip on the partials the coordinator received.
	var enc, dec, size []float64
	for _, cp := range partials {
		var b bytes.Buffer
		s := e.tr.start(nil, p.workload, "shard", "fleet.EncodePartial")
		err := fleet.EncodePartial(&b, cp)
		e.tr.end(s)
		if err != nil {
			return nil, err
		}
		enc = append(enc, s.dur().Seconds()*1e6)
		size = append(size, float64(b.Len()))
		s = e.tr.start(nil, p.workload, "shard", "fleet.DecodePartial")
		_, err = fleet.DecodePartial(&b)
		e.tr.end(s)
		if err != nil {
			return nil, err
		}
		dec = append(dec, s.dur().Seconds()*1e6)
	}
	p.layerMedian("shard.partial_bytes", size)
	p.layerMedian("shard.encode_us", enc)
	p.layerMedian("shard.decode_us", dec)
	return p, nil
}
