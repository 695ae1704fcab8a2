package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// Workload names.
const (
	warmRead     = "warm_read"
	coldQuery    = "cold_query"
	readWriteMix = "read_write_mix"
)

var workloads = []string{warmRead, coldQuery, readWriteMix}

// Update schedules: read_write_mix's writer has a batch due every
// mixInterval (ten epochs a second, well below what the daemon sustains
// beside a busy reader, so no backlog builds up); the write probe that
// ends warm_read and cold_query, with no reader beside it, every
// probeInterval.
const (
	mixInterval   = 100 * time.Millisecond
	probeInterval = 50 * time.Millisecond
)

// mixThink is read_write_mix's reader pause between an answer and its next
// request. Its reads are cold (every commit drops the plan cache) and a
// cold search runs on every CPU; without the pause the reader would
// leave the committer no idle CPU at all.
const mixThink = 100 * time.Millisecond

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	xvserve  string
	work     string
	// setups is how many times the run sets up (the median is setup_s; the
	// last set-up serves the run).
	setups int
	// probe is the number of update batches warm_read and cold_query send
	// after their read window, a multiple of batchKinds.
	probe int
}

// A run sets up runSetups times and the write probe sends probeBatches
// batches (eight seconds at probeInterval); the smoke test runs less.
const (
	runSetups    = 5
	probeBatches = 160
)

// setup is one set-up: the generated document (the oracle's copy), the
// store directory and the daemon serving it.
type setup struct {
	doc      *xmltree.Document
	dir      string
	d        *daemon
	dur      time.Duration
	generate time.Duration
	build    time.Duration
}

// setUp generates the document, builds the store, starts xvserve on it,
// sends the warm-up batch (the daemon loads the document on its first
// update) and caches the plans of the warm requests.
func setUp(cfg config, dir string, reqs []request, warmup batch) (*setup, error) {
	start := time.Now()
	s := &setup{dir: dir}
	s.doc = generate(cfg.seed)
	s.generate = time.Since(start)
	t := time.Now()
	if _, err := view.BuildStore(dir, s.doc, buildViews()); err != nil {
		return nil, err
	}
	s.build = time.Since(t)
	d, err := startDaemon(cfg.xvserve, dir)
	if err != nil {
		return nil, err
	}
	s.d = d
	if ack, err := d.update(warmup.body); err != nil || ack.Epoch != 1 {
		d.stop()
		return nil, fmt.Errorf("warm-up update: ack %+v, error %v", ack, err)
	}
	for _, r := range reqs {
		if _, _, _, err := d.query(r); err != nil {
			d.stop()
			return nil, fmt.Errorf("plan warm-up: %w", err)
		}
	}
	s.dur = time.Since(start)
	return s, nil
}

// readSample is one /query request of a measured window.
type readSample struct {
	lat   time.Duration
	bytes int
	ans   answer
	err   error
}

// readLoop runs n closed-loop clients until the deadline, each pausing
// think between an answer and its next request; next picks client c's
// i-th request.
func readLoop(d *daemon, n int, think time.Duration, deadline time.Time, next func(c, i int) request) []readSample {
	per := make([][]readSample, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				req := next(c, i)
				lat, qr, nb, err := d.query(req)
				s := readSample{lat: lat, bytes: nb, err: err}
				if err == nil {
					s.ans = newAnswer(req, qr)
				}
				per[c] = append(per[c], s)
				time.Sleep(think)
			}
		}(c)
	}
	wg.Wait()
	var out []readSample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// writeLog records an open-loop writer's batches.
type writeLog struct {
	lats []time.Duration // from when each batch was due to its acknowledgement
	late []time.Duration // from when each batch was due to when it was sent
	// acks holds each batch's acknowledged epoch, 0 for a failed batch.
	acks      []int64
	errs      []error
	bodyBytes int64
	written   int64
}

// writeSchedule sends the batches one at a time, batch j due at
// start + j·interval; a batch that is late because the previous one was
// slow is timed from when it was due. After each acknowledgement the store
// directory is scanned for files the batch (or a compaction) wrote.
func writeSchedule(d *daemon, bs []batch, start time.Time, interval time.Duration, dir string, files map[fileKey]bool, log *writeLog) {
	for j, b := range bs {
		due := start.Add(time.Duration(j) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		log.late = append(log.late, time.Since(due))
		ack, err := d.update(b.body)
		lat := time.Since(due)
		log.bodyBytes += int64(len(b.body))
		if err != nil {
			log.acks = append(log.acks, 0)
			log.errs = append(log.errs, err)
			continue
		}
		log.lats = append(log.lats, lat)
		log.acks = append(log.acks, ack.Epoch)
		log.written += newFileBytes(dir, files)
	}
}

// fileKey identifies one version of a file: atomic writes replace files
// with new inodes, so a key seen before means no new bytes.
type fileKey struct {
	name       string
	ino        uint64
	size, nsec int64
}

// newFileBytes returns the bytes of files in dir not seen by an earlier
// scan and marks them seen.
func newFileBytes(dir string, seen map[fileKey]bool) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		k := fileKey{name: e.Name(), size: info.Size(), nsec: info.ModTime().UnixNano()}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			k.ino = st.Ino
		}
		if !seen[k] {
			seen[k] = true
			n += info.Size()
		}
	}
	return n
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// result is one run's outcome.
type result struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// notes describe failed operations and failed checks; info lines
	// describe the samples behind the metrics.
	notes, info []string
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs one workload against xvserve and, when cfg.trace is
// set, the in-process traced run after it.
func runWorkload(cfg config) (*result, error) {
	runDir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	reqs := warmRequests(cfg.seed)
	writes := cfg.probe
	if cfg.workload == readWriteMix {
		// Whole rounds of the four batch kinds fill the run.
		writes = int(cfg.seconds/mixInterval) / batchKinds * batchKinds
		if writes == 0 {
			writes = batchKinds
		}
	}
	batches, err := genBatches(generate(cfg.seed), cfg.seed, 1+writes)
	if err != nil {
		return nil, err
	}

	var set *setup
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if set != nil {
			set.d.stop()
			if err := os.RemoveAll(set.dir); err != nil {
				return nil, err
			}
		}
		if set, err = setUp(cfg, filepath.Join(runDir, fmt.Sprintf("store%d", i)), reqs, batches[0]); err != nil {
			return nil, err
		}
		setupS = append(setupS, set.dur.Seconds())
	}
	d := set.d
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	files := map[fileKey]bool{}
	newFileBytes(set.dir, files)
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var reads []readSample
	var wlog writeLog
	switch cfg.workload {
	case warmRead:
		clients := min(2, runtime.NumCPU())
		reads = readLoop(d, clients, 0, deadline, func(c, i int) request {
			return reqs[(c*len(reqs)/clients+i)%len(reqs)]
		})
	case coldQuery:
		// One client: each cold search already runs on every CPU (the
		// daemon's default worker count), so a second concurrent search
		// would only contend for them.
		stream := newColdStream(cfg.seed)
		reads = readLoop(d, 1, 0, deadline, func(_, _ int) request { return request{q: stream.next()} })
	case readWriteMix:
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeSchedule(d, batches[1:], start, mixInterval, set.dir, files, &wlog)
		}()
		reads = readLoop(d, 1, mixThink, deadline, func(_, i int) request { return reqs[i%len(reqs)] })
		wg.Wait()
	}
	window := time.Since(start)
	interval := mixInterval
	if cfg.workload != readWriteMix {
		interval = probeInterval
		writeSchedule(d, batches[1:], time.Now(), probeInterval, set.dir, files, &wlog)
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	storeBytes := dirSize(set.dir)
	d.stop()
	stopped = true

	res := &result{workload: cfg.workload, traced: cfg.trace, correct: true, attempted: len(reads) + len(wlog.acks)}
	finalEpoch, orc := verify(res, set.doc, batches, reads, &wlog)
	if orc != nil {
		restartCheck(res, cfg, set.dir, reqs, orc, finalEpoch)
	}

	var lat, upd []float64
	var respBytes int
	for _, s := range reads {
		if s.err == nil {
			lat = append(lat, ms(s.lat))
			respBytes += s.bytes
		}
	}
	for _, l := range wlog.lats {
		upd = append(upd, ms(l))
	}
	res.info = append(res.info,
		fmt.Sprintf("queries: %d samples over %.2fs; tail = %s", len(lat), window.Seconds(), tailName(len(lat))),
		fmt.Sprintf("updates: %d samples, one due every %s; tail = %s", len(upd), interval, tailName(len(upd))))
	docBytes := 0
	if orc != nil {
		docBytes = len(orc.doc.XMLString())
	}
	// The tails and the update latencies are reported with the per-layer
	// metrics, which carry no bound: on a machine whose disk and CPUs are
	// shared, their run-to-run spread exceeds any bound the benchmark can
	// hold (see README.md). Untraced runs print them too.
	if !cfg.trace {
		res.add("setup_s", "s", median(setupS))
		res.add("query_p50_ms", "ms", median(lat))
		res.add("query_per_s", "1/s", float64(len(lat))/window.Seconds())
		res.add("write_amp", "ratio", ratio(float64(wlog.written), float64(wlog.bodyBytes)))
		res.add("store_bytes_per_doc_byte", "ratio", ratio(float64(storeBytes), float64(docBytes)))
		res.add("rss_peak_mb", "MiB", rss)
		res.info = append(res.info, fmt.Sprintf("unbounded: query_tail_ms %.4f, update_p50_ms %.4f, update_tail_ms %.4f",
			tail(lat), median(upd), tail(upd)))
		return res, nil
	}
	res.add("query_tail_ms", "ms", tail(lat))
	res.add("update_p50_ms", "ms", median(upd))
	res.add("update_tail_ms", "ms", tail(upd))
	var late []float64
	for _, l := range wlog.late {
		late = append(late, ms(l))
	}
	st0, st1 := before.stats, after.stats
	res.add("serve.rewrites_per_query", "ratio", ratio(float64(st1.RewritesRun-st0.RewritesRun), float64(st1.Queries-st0.Queries)))
	res.add("serve.cache_invalidations", "count", float64(st1.CacheInvalidations-st0.CacheInvalidations))
	res.add("serve.commit_queue_wait_ms", "ms", histMeanMS(before, after, "xvserve_commit_queue_wait_seconds"))
	res.add("serve.response_bytes", "B", ratio(float64(respBytes), float64(len(lat))))
	res.add("serve.compactions", "count", float64(st1.Compactions-st0.Compactions))
	res.add("client.update_late_p50_ms", "ms", median(late))
	res.add("setup.generate_ms", "ms", ms(set.generate))
	res.add("store.build_ms", "ms", ms(set.build))
	if err := tracedRun(cfg, res, reqs, batches); err != nil {
		return nil, err
	}
	return res, nil
}

// verify checks the run's acknowledgements and answers. Acknowledged
// epochs must be contiguous from 2 (the warm-up batch made epoch 1). Each
// answer is checked, in epoch order, against direct evaluation of the
// document replayed to the epoch the answer reports. It returns the final
// epoch and the oracle positioned there (nil when replay failed).
func verify(res *result, doc *xmltree.Document, batches []batch, reads []readSample, wlog *writeLog) (int64, *oracle) {
	final := int64(1)
	errs := wlog.errs
	for j, e := range wlog.acks {
		if e == 0 {
			res.failed++
			res.note("update %d failed: %v", j, errs[0])
			errs = errs[1:]
			continue
		}
		if e != final+1 {
			res.correct = false
			res.note("update %d acknowledged epoch %d after epoch %d", j, e, final)
		}
		final = e
	}
	orc := newOracle(doc)
	at := int64(0)
	advanceTo := func(e int64) error {
		for ; at < e; at++ {
			if err := orc.advance(batches[at]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := advanceTo(1); err != nil {
		res.correct = false
		res.note("replaying the warm-up batch: %v", err)
		return 0, nil
	}
	var ok []*readSample
	for i := range reads {
		if reads[i].err != nil {
			res.failed++
			res.note("query failed: %v", reads[i].err)
			continue
		}
		ok = append(ok, &reads[i])
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].ans.epoch < ok[j].ans.epoch })
	for _, s := range ok {
		if s.ans.epoch < 1 || s.ans.epoch > final {
			res.failed++
			res.note("%s answered at epoch %d, outside the acknowledged epochs 1..%d", s.ans.req.q, s.ans.epoch, final)
			continue
		}
		if err := advanceTo(s.ans.epoch); err != nil {
			res.correct = false
			res.note("%v", err)
			return 0, nil
		}
		t, err := orc.truth(s.ans.req.q)
		if err == nil {
			err = s.ans.check(t)
		}
		if err != nil {
			res.failed++
			res.note("%v", err)
		}
	}
	if err := advanceTo(final); err != nil {
		res.correct = false
		res.note("%v", err)
		return 0, nil
	}
	return final, orc
}

// restartCheck starts a fresh daemon on the final directory and checks
// every warm request against direct evaluation of the final document.
func restartCheck(res *result, cfg config, dir string, reqs []request, orc *oracle, final int64) {
	d, err := startDaemon(cfg.xvserve, dir)
	if err != nil {
		res.correct = false
		res.note("restart: %v", err)
		return
	}
	defer d.stop()
	for _, r := range reqs {
		_, qr, _, err := d.query(r)
		if err == nil && qr.Epoch != final {
			err = fmt.Errorf("%s: restarted daemon answers at epoch %d, want %d", r.q, qr.Epoch, final)
		}
		var t *truth
		if err == nil {
			t, err = orc.truth(r.q)
		}
		if err == nil {
			err = newAnswer(r, qr).check(t)
		}
		if err != nil {
			res.correct = false
			res.note("after restart: %v", err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// beyond it: the eleventh-largest sample (the largest when there are
// fewer than eleven).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}

// tailName names the percentile tail reports for n samples.
func tailName(n int) string {
	if n < 11 {
		return "the maximum"
	}
	return fmt.Sprintf("p%.1f (the 11th-largest sample)", 100*float64(n-10)/float64(n))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
