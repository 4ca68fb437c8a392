package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/infer/cluster"
	"repro/internal/sim"
	"repro/internal/timing"
)

// clusterWL runs one multi-replica serving simulation per op through
// cluster.Run, inline (Shards=1): the event core, the fabric's switch ports
// and host timing do the work and PDES never runs. Every op's Metrics must
// render exactly as the reference made in set-up.
type clusterWL struct {
	cfg  cluster.Config
	ref  []byte
	refM cluster.Metrics
}

func setupCluster(e *env) (instance, error) {
	cfg := cluster.Config{
		Seed:         e.seed,
		Replicas:     8,
		Expanders:    2,
		Requests:     2048,
		RatePerSec:   400_000,
		LocalBlocks:  8,
		SharedBlocks: 256,
		Shards:       1,
	}
	if e.smoke {
		cfg.Requests = 256
	}
	c := &clusterWL{cfg: cfg}
	m := c.run()
	c.ref, c.refM = e.reference(renderMetrics(m)), m
	return c, nil
}

// renderMetrics writes every field of m in a fixed order, samples sorted,
// so equal simulations render equal bytes.
func renderMetrics(m cluster.Metrics) []byte {
	var b bytes.Buffer
	sample := func(name string, xs []float64) {
		s := sortedCopy(xs)
		fmt.Fprintf(&b, "%s n=%d %v\n", name, len(s), s)
	}
	fmt.Fprintf(&b, "router=%s topo=%s accesses=%d gen=%d elapsed=%d goodput=%v\n",
		m.Router, m.TopoKey, m.Accesses, m.GenTokens, m.Elapsed, m.Goodput)
	sample("ttft", m.TTFT.Values())
	sample("tpot", m.TPOT.Values())
	for i, r := range m.Replicas {
		fmt.Fprintf(&b, "replica=%d requests=%d gen=%d local=%d shared=%d\n",
			i, r.Requests, r.GenTokens, r.LocalBytes, r.SharedBytes)
		sample("ttft", r.TTFT.Values())
		sample("tpot", r.TPOT.Values())
	}
	for _, l := range m.Links {
		fmt.Fprintf(&b, "link %+v\n", l)
	}
	for _, p := range m.Ports {
		fmt.Fprintf(&b, "port %+v\n", p)
	}
	return b.Bytes()
}

func (c *clusterWL) digest() string {
	h := sha256.Sum256(c.ref)
	return hex.EncodeToString(h[:])
}

func (c *clusterWL) close() {}

// run is one simulation with a fresh router (routers are single-use).
func (c *clusterWL) run() cluster.Metrics {
	cfg := c.cfg
	cfg.Router = cluster.NewRoundRobin()
	return cluster.Run(cfg)
}

func (c *clusterWL) measure(window time.Duration, tr *tracer) phase {
	return closedLoop(window, 1, func() (time.Duration, float64, error) {
		opID := tr.newID()
		opStart := time.Now()
		if tr != nil {
			c.traceParts(tr, opID)
		}
		t0 := time.Now()
		m := c.run()
		end := time.Now()
		tr.add(span{Parent: opID, Name: "cluster.run"}, t0, end)
		tr.add(span{ID: opID, Name: "cluster.op"}, opStart, end)
		d := end.Sub(t0)
		if !bytes.Equal(renderMetrics(m), c.ref) {
			return d, 0, fmt.Errorf("Metrics differ from the reference")
		}
		return d, float64(m.Accesses), nil
	})
}

// traceParts times, ahead of a traced op, the pieces cluster.Run is made
// of that can be called alone: compiling the fabric and building the
// cluster.
func (c *clusterWL) traceParts(tr *tracer, opID uint64) {
	t0 := time.Now()
	fabric.MustBuild(c.cfg.Topology(), timing.Default(), fabric.Shards(1))
	t1 := time.Now()
	tr.add(span{Parent: opID, Name: "fabric.build"}, t0, t1)
	cluster.New(c.cfg)
	tr.add(span{Parent: opID, Name: "cluster.new"}, t1, time.Now())
}

// layers reports host time per piece and per simulated access, and the
// simulation's own counts, which a change meant only to speed the
// simulator up must leave exactly as they are.
func (c *clusterWL) layers(tr *tracer, _ phase, m metrics) {
	ix := indexSpans(tr.snapshot())
	m.set("fabric.build_ms", median(ix.durationsMs("fabric.build", "")))
	m.set("cluster.new_ms", median(ix.durationsMs("cluster.new", "")))
	run := median(ix.durationsMs("cluster.run", ""))
	m.set("cluster.run_ms", run)
	m.set("cluster.host_ns_per_access", ratio(run*1e6, float64(c.refM.Accesses)))
	var shared uint64
	for _, r := range c.refM.Replicas {
		shared += r.SharedBytes
	}
	m.set("cluster.accesses", float64(c.refM.Accesses))
	m.set("cluster.gen_tokens", float64(c.refM.GenTokens))
	m.set("cluster.switch_wait_us", float64(c.refM.SwitchWaited())/float64(sim.Microsecond))
	m.set("cluster.peak_queue", float64(c.refM.PeakQueue()))
	m.set("cluster.shared_bytes", float64(shared))
}
