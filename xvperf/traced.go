package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/serve"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// The traced run drives a workload's operation sequence in process,
// through the same public entry points the daemon calls, with one span
// around each call. Nothing inside the program is instrumented: spans
// are recorded from here, at layer boundaries.

// span is one traced call. Parent is -1 for an operation's root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing; the pass run with it off measures tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// layerCounts accumulates per-layer work and time over a pass.
type layerCounts struct {
	rewrites                                 int
	rewriteNS, firstNS                       int64
	explored, found, kept, total             int
	chooseNS                                 int64
	snaps                                    int
	snapNS                                   int64
	execs, scanned, skipped, vectorized      int
	execNS, sortNS, encodeNS                 int64
	rowsSorted, rowsReturned                 int
	updates                                  int
	dryNS, applyNS, annotateNS               int64
	deltaNS, docNS, catNS                    int64
	deltaBytes, docBytes, catBytes           int64
	viewsSkipped, viewsScoped, viewsRelevant int
	viewsSeen, versionsPeak                  int
	compactions                              int
	compactNS, openNS                        int64
}

// inproc is the in-process copy of the daemon's query and update
// pipeline over its own store directory.
type inproc struct {
	tr      *tracer
	dir     string
	cat     *store.Catalog
	views   []*core.View
	st      *view.Store
	sum     *summary.Summary
	est     *cost.Estimator
	subsume *core.SubsumeCache
	plans   map[string]cachedPlan
	m       layerCounts
}

type cachedPlan struct {
	plan *core.Plan
	cost float64
	alts int
}

// timed runs f inside a span and adds its duration to *ns.
func (p *inproc) timed(name string, ns *int64, f func()) {
	s := p.tr.begin(name)
	start := time.Now()
	f()
	*ns += time.Since(start).Nanoseconds()
	p.tr.end(s)
}

// daemonCompactChain is the daemon's default online compaction trigger.
const daemonCompactChain = 16

// openInproc builds a store for doc in dir and opens it the way the daemon
// does.
func openInproc(dir string, doc *xmltree.Document, tr *tracer) (*inproc, error) {
	p := &inproc{tr: tr, dir: dir}
	op := tr.begin("serve.open")
	defer tr.end(op)
	var err error
	var buildNS int64
	p.timed("store.build", &buildNS, func() { _, err = view.BuildStore(dir, doc, buildViews()) })
	if err != nil {
		return nil, err
	}
	p.timed("store.open", &p.m.openNS, func() {
		if p.cat, err = store.OpenCatalog(dir); err != nil {
			return
		}
		if p.views, err = view.ViewsFromCatalog(p.cat); err != nil {
			return
		}
		p.st, err = view.OpenStoreWithCatalog(dir, p.cat, p.views)
	})
	if err != nil {
		return nil, err
	}
	if p.sum, err = summary.Parse(p.cat.Summary); err != nil {
		return nil, err
	}
	p.newEpoch(p.sum)
	return p, nil
}

// newEpoch drops the epoch-scoped caches, as the daemon's committer does
// on every commit.
func (p *inproc) newEpoch(sum *summary.Summary) {
	p.sum = sum
	p.subsume = core.NewSubsumeCache(0)
	p.plans = map[string]cachedPlan{}
	p.est = cost.NewEstimator(cost.FromCatalog(p.cat, sum))
}

// query answers one request like the daemon's /query handler.
func (p *inproc) query(r request) error {
	op := p.tr.begin("serve.query")
	defer p.tr.end(op)
	var q *pattern.Pattern
	var err error
	var parseNS int64
	p.timed("pattern.parse", &parseNS, func() { q, err = pattern.Parse(r.q) })
	if err != nil {
		return err
	}
	key := q.String()
	cp, ok := p.plans[key]
	if !ok {
		opts := core.DefaultRewriteOptions()
		opts.Workers = -1
		opts.Subsume = p.subsume
		opts.MaxResults = 8 // the daemon's default MaxRewritings
		var res *core.RewriteResult
		p.timed("core.rewrite", &p.m.rewriteNS, func() { res, err = core.Rewrite(q, p.views, p.sum, opts) })
		if err != nil {
			return fmt.Errorf("%s: rewrite: %w", r.q, err)
		}
		p.m.rewrites++
		p.m.firstNS += res.First.Nanoseconds()
		p.m.explored += res.PlansExplored
		p.m.found += len(res.Rewritings)
		p.m.kept += res.ViewsKept
		p.m.total += res.ViewsTotal
		p.timed("cost.choose", &p.m.chooseNS, func() { cp.plan, cp.cost, cp.alts = core.ChooseBest(res, p.est.PlanCost) })
		if cp.plan == nil {
			return fmt.Errorf("%s: no rewriting", r.q)
		}
		if math.IsInf(cp.cost, 1) {
			cp.cost = -1
		}
		p.plans[key] = cp
	}
	var snap *view.Store
	p.timed("view.snapshot", &p.m.snapNS, func() { snap = p.st.Snapshot() })
	var xs algebra.ExecStats
	var out *algebra.Result
	p.timed("algebra.exec", &p.m.execNS, func() {
		out, err = algebra.ExecuteWith(cp.plan, snap, algebra.Options{Workers: -1, Stats: &xs})
	})
	p.timed("view.release", &p.m.snapNS, snap.Release)
	p.m.snaps++
	if err != nil {
		return fmt.Errorf("%s: execute: %w", r.q, err)
	}
	p.m.execs++
	p.m.scanned += xs.BlocksScanned
	p.m.skipped += xs.BlocksSkipped
	if xs.Vectorized() {
		p.m.vectorized++
	}
	var rel *nrel.Relation
	p.timed("nrel.sort", &p.m.sortNS, func() { rel = out.Rel.Sorted() })
	p.m.rowsSorted += rel.Len()
	limit, off := r.limit, r.offset
	if limit == 0 {
		limit = 10000 // the daemon's default response cap
	}
	if off > rel.Len() {
		off = rel.Len()
	}
	end := off + limit
	if end > rel.Len() {
		end = rel.Len()
	}
	s := p.tr.begin("serve.render")
	rows := make([][]string, 0, end-off)
	for _, row := range rel.Rows[off:end] {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.Render()
		}
		rows = append(rows, cells)
	}
	p.tr.end(s)
	p.m.rowsReturned += len(rows)
	resp := &serve.QueryResponse{Query: key, Plan: cp.plan.String(), Cost: cp.cost, Alternatives: cp.alts,
		PlanCached: ok, Epoch: p.st.Epoch(), Columns: rel.Cols, Rows: rows, TotalRows: rel.Len(), Offset: off}
	p.timed("serve.encode", &p.m.encodeNS, func() { _, err = json.Marshal(resp) })
	return err
}

// update commits one batch like the daemon's committer: validate with a
// dry run, apply to the store, swap the epoch caches, write the delta
// segments, the document and the catalog.
func (p *inproc) update(b batch) error {
	op := p.tr.begin("serve.update")
	defer p.tr.end(op)
	var err error
	if p.st.Document() == nil {
		var readNS int64
		p.timed("store.doc_read", &readNS, func() {
			var doc *xmltree.Document
			if doc, err = store.ReadDocumentFile(filepath.Join(p.dir, p.cat.DocSegment)); err == nil {
				p.st.SetDocument(doc)
			}
		})
		if err != nil {
			return err
		}
	}
	p.timed("maintain.dryrun", &p.m.dryNS, func() {
		dry := maintain.NewDryRun(p.st.Document())
		err = dry.Apply(b.updates)
		dry.Undo()
	})
	if err != nil {
		return err
	}
	var bt *maintain.Batch
	p.timed("view.apply", &p.m.applyNS, func() { bt, err = p.st.ApplyUpdatesCtx(context.Background(), b.updates) })
	if err != nil {
		return err
	}
	p.newEpoch(bt.Summary)
	p.m.updates++
	p.m.viewsSeen += len(p.views)
	p.m.viewsSkipped += len(bt.Skipped)
	p.m.viewsRelevant += len(p.views) - len(bt.Skipped)
	p.m.viewsScoped += bt.Scoped
	if v := p.st.Versions(); v > p.m.versionsPeak {
		p.m.versionsPeak = v
	}
	epoch := p.st.Epoch()
	type staged struct {
		e    *store.Entry
		ref  store.DeltaRef
		rows int
	}
	var stage []staged
	for _, d := range bt.Deltas {
		e := p.cat.Entry(d.View.Name)
		seg := fmt.Sprintf("%s.d%04d.xvs", strings.TrimSuffix(e.Segment, ".xvs"), epoch)
		var n int64
		p.timed("store.delta_write", &p.m.deltaNS, func() { n, err = store.WriteDeltaFile(filepath.Join(p.dir, seg), d.Adds, d.Dels) })
		if err != nil {
			return err
		}
		p.m.deltaBytes += n
		stage = append(stage, staged{e: e, rows: d.New.Len(),
			ref: store.DeltaRef{Segment: seg, Adds: d.Adds.Len(), Dels: d.Dels.Len(), Bytes: n, Epoch: epoch}})
	}
	p.timed("summary.annotate", &p.m.annotateNS, func() { err = bt.Summary.Annotate(p.st.Document()) })
	if err != nil {
		return err
	}
	var n int64
	p.timed("store.doc_write", &p.m.docNS, func() {
		n, err = store.WriteDocumentFile(filepath.Join(p.dir, p.cat.DocSegment), p.st.Document())
	})
	if err != nil {
		return err
	}
	p.m.docBytes += n
	for _, s := range stage {
		s.e.Deltas = append(s.e.Deltas, s.ref)
		s.e.Rows = s.rows
	}
	p.cat.Summary = bt.Summary.StatsString()
	p.cat.Epoch = epoch
	p.timed("store.catalog_write", &p.m.catNS, func() { err = store.WriteCatalog(p.dir, p.cat) })
	if err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(p.dir, store.ManifestName)); err == nil {
		p.m.catBytes += fi.Size()
	}
	p.est = cost.NewEstimator(cost.FromCatalog(p.cat, bt.Summary))
	return nil
}

// compactIfDue folds the delta chains when the daemon's default policy
// would: once any chain reaches daemonCompactChain segments.
func (p *inproc) compactIfDue() error {
	longest := 0
	for _, e := range p.cat.Views {
		if len(e.Deltas) > longest {
			longest = len(e.Deltas)
		}
	}
	if longest < daemonCompactChain {
		return nil
	}
	op := p.tr.begin("serve.compact")
	defer p.tr.end(op)
	var err error
	p.timed("store.compact", &p.m.compactNS, func() {
		//xvlint:lockheld(updMu) the traced run owns this directory and commits from one goroutine, so no update can interleave with the fold
		_, err = view.CompactCatalog(p.dir, p.cat)
	})
	p.m.compactions++
	return err
}

// traceOp is one operation of the traced sequence: a query or a batch.
type traceOp struct {
	setup bool
	upd   bool
	req   request
	b     batch
}

// Sizes of the traced sequences.
const (
	traceWarmRounds = 5  // rounds of the twelve warm requests
	traceCold       = 24 // cold shapes (four rounds of the six templates)
	traceMixBatches = 40 // read_write_mix batches, each followed by two reads
)

// traceOps returns the workload's operation sequence for the traced run:
// the set-up (warm-up batch and plan warm-up), the workload's own
// operations, and for warm_read and cold_query the write probe.
func traceOps(cfg config, reqs []request, batches []batch) []traceOp {
	ops := []traceOp{{setup: true, upd: true, b: batches[0]}}
	for _, r := range reqs {
		ops = append(ops, traceOp{setup: true, req: r})
	}
	writes := batches[1:]
	switch cfg.workload {
	case warmRead:
		for i := 0; i < traceWarmRounds*len(reqs); i++ {
			ops = append(ops, traceOp{req: reqs[i%len(reqs)]})
		}
	case coldQuery:
		stream := newColdStream(cfg.seed)
		for i := 0; i < traceCold; i++ {
			ops = append(ops, traceOp{req: request{q: stream.next()}})
		}
	case readWriteMix:
		for j := 0; j < traceMixBatches && j < len(writes); j++ {
			ops = append(ops, traceOp{upd: true, b: writes[j]},
				traceOp{req: reqs[(2*j)%len(reqs)]}, traceOp{req: reqs[(2*j+1)%len(reqs)]})
		}
		return ops
	}
	for _, b := range writes {
		ops = append(ops, traceOp{upd: true, b: b})
	}
	return ops
}

// pass is one in-process run of the sequence.
type pass struct {
	p     *inproc
	walls []time.Duration // each operation's wall time
	wall  time.Duration   // their sum
}

func runPass(cfg config, dir string, on bool, ops []traceOp) (*pass, error) {
	tr := &tracer{on: on, t0: time.Now()}
	p, err := openInproc(dir, generate(cfg.seed), tr)
	if err != nil {
		return nil, err
	}
	ps := &pass{p: p}
	for i, o := range ops {
		tr.op = i + 1
		start := time.Now()
		if o.upd {
			err = p.update(o.b)
			if err == nil {
				err = p.compactIfDue()
			}
		} else {
			err = p.query(o.req)
		}
		ps.walls = append(ps.walls, time.Since(start))
		ps.wall += ps.walls[i]
		if err != nil {
			return nil, fmt.Errorf("traced operation %d: %w", i, err)
		}
	}
	return ps, nil
}

// handlerRoundTrip times serve.Server.Handler on the warm requests (plans
// cached) over a read-only server of its own.
func handlerRoundTrip(cfg config, dir string, reqs []request) (time.Duration, error) {
	if _, err := view.BuildStore(dir, generate(cfg.seed), buildViews()); err != nil {
		return 0, err
	}
	srv, err := serve.New(serve.Config{Dir: dir, ReadOnly: true})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	var total time.Duration
	for round := 0; round < 3; round++ {
		for _, r := range reqs {
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?"+r.values().Encode(), nil))
			if round > 0 { // round 0 caches the plans
				total += time.Since(start)
			}
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler %s: HTTP %d", r.q, rec.Code)
			}
		}
	}
	return total / time.Duration(2*len(reqs)), nil
}

// tracedRun runs the workload's sequence in process twice, with spans off
// and on, writes the spans and adds the per-layer metrics to res.
func tracedRun(cfg config, res *result, reqs []request, batches []batch) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("traced-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ops := traceOps(cfg, reqs, batches)
	off, err := runPass(cfg, filepath.Join(dir, "off"), false, ops)
	if err != nil {
		return err
	}
	on, err := runPass(cfg, filepath.Join(dir, "on"), true, ops)
	if err != nil {
		return err
	}
	handler, err := handlerRoundTrip(cfg, filepath.Join(dir, "handler"), reqs)
	if err != nil {
		return err
	}
	spans := on.p.tr.spans
	spansPath := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(spansPath, spans); err != nil {
		return err
	}

	m := on.p.m
	msPer := func(ns int64, n int) float64 { return ratio(float64(ns)/1e6, float64(n)) }
	res.add("core.rewrite_ms", "ms", msPer(m.rewriteNS, m.rewrites))
	res.add("core.first_rewriting_ms", "ms", msPer(m.firstNS, m.rewrites))
	res.add("core.plans_explored", "count", ratio(float64(m.explored), float64(m.rewrites)))
	res.add("core.rewritings_found", "count", ratio(float64(m.found), float64(m.rewrites)))
	res.add("core.chosen_per_found", "ratio", ratio(float64(m.rewrites), float64(m.found)))
	res.add("core.views_kept_ratio", "ratio", ratio(float64(m.kept), float64(m.total)))
	res.add("cost.choose_ms", "ms", msPer(m.chooseNS, m.rewrites))
	res.add("view.snapshot_us", "us", msPer(m.snapNS, m.snaps)*1e3)
	res.add("view.apply_ms", "ms", msPer(m.applyNS, m.updates))
	res.add("view.versions_peak", "count", float64(m.versionsPeak))
	res.add("algebra.exec_ms", "ms", msPer(m.execNS, m.execs))
	res.add("algebra.blocks_scanned", "count", ratio(float64(m.scanned), float64(m.execs)))
	res.add("algebra.blocks_skipped", "count", ratio(float64(m.skipped), float64(m.execs)))
	res.add("algebra.vectorized_share", "ratio", ratio(float64(m.vectorized), float64(m.execs)))
	res.add("nrel.sort_ms", "ms", msPer(m.sortNS, m.execs))
	res.add("nrel.rows_sorted_per_row_returned", "ratio", ratio(float64(m.rowsSorted), float64(m.rowsReturned)))
	res.add("serve.encode_ms", "ms", msPer(m.encodeNS, m.execs))
	res.add("serve.handler_ms", "ms", ms(handler))
	res.add("maintain.dryrun_ms", "ms", msPer(m.dryNS, m.updates))
	res.add("maintain.views_skipped_ratio", "ratio", ratio(float64(m.viewsSkipped), float64(m.viewsSeen)))
	res.add("maintain.scoped_ratio", "ratio", ratio(float64(m.viewsScoped), float64(m.viewsRelevant)))
	res.add("summary.annotate_ms", "ms", msPer(m.annotateNS, m.updates))
	res.add("store.delta_write_ms", "ms", msPer(m.deltaNS, m.updates))
	res.add("store.doc_write_ms", "ms", msPer(m.docNS, m.updates))
	res.add("store.catalog_write_ms", "ms", msPer(m.catNS, m.updates))
	res.add("store.delta_bytes_per_update", "B", ratio(float64(m.deltaBytes), float64(m.updates)))
	res.add("store.doc_bytes_per_update", "B", ratio(float64(m.docBytes), float64(m.updates)))
	res.add("store.catalog_bytes_per_update", "B", ratio(float64(m.catBytes), float64(m.updates)))
	res.add("store.compactions", "count", float64(m.compactions))
	res.add("store.compact_ms", "ms", msPer(m.compactNS, m.compactions))
	res.add("store.open_ms", "ms", msPer(m.openNS, 1))

	self, selfSum := selfTimes(spans)
	for _, layer := range layers {
		res.add(layer+".self_ms", "ms", ratio(float64(self[layer])/1e6, float64(len(ops))))
	}
	res.add("trace.self_share", "ratio", ratio(float64(selfSum), float64(on.wall.Nanoseconds())))
	// Tracing overhead compares each operation with itself across the two
	// passes; the median of those ratios discounts the machine's own
	// speed changes between the passes, which a ratio of totals would not.
	var ratios []float64
	for i := range ops {
		ratios = append(ratios, ratio(float64(on.walls[i]), float64(off.walls[i])))
	}
	res.add("trace.overhead_pct", "%", 100*(median(ratios)-1))
	res.info = append(res.info, fmt.Sprintf("traced run: %d operations, %d spans written to %s", len(ops), len(spans), spansPath))
	return nil
}

// layers are the program's modules the spans are attributed to, by the
// span name's prefix.
var layers = []string{"serve", "pattern", "core", "cost", "view", "algebra", "nrel", "maintain", "summary", "store"}

// selfTimes returns each layer's self time (a span's duration minus the
// time its children cover; children of one span never overlap, since the
// traced run is sequential) and their sum over the operations' spans. The
// set-up's serve.open span is left out: its wall time is not an
// operation's.
func selfTimes(spans []span) (map[string]int64, int64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	var sum int64
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		v := s.End - s.Start - child[s.ID]
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += v
		sum += v
	}
	return self, sum
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
