package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/serve"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// The oracle answers every query by evaluating its pattern directly on the
// benchmark's own copy of the document (view.Materialize): no rewriting,
// cost model, stored extent, maintenance pass or executor is involved.

// truth is one pattern's direct result: its rows under the daemon's
// per-slot column names (s0.id, s0.v, ...), as hashes of the rendered rows.
type truth struct {
	cols []string
	rows map[uint64]bool
	n    int
}

// evalDirect evaluates the pattern on doc.
func evalDirect(q string, doc *xmltree.Document) (*truth, error) {
	p, err := pattern.Parse(q)
	if err != nil {
		return nil, err
	}
	rel := view.Materialize(&core.View{Name: "oracle", Pattern: p}, doc)
	// Materialize names columns after pattern nodes (I3, V3, C3); the
	// daemon names them after return slots.
	attrs := []struct{ prefix, name string }{{"I", "id"}, {"L", "l"}, {"V", "v"}, {"C", "c"}}
	names := map[string]string{}
	for k, rn := range p.Returns() {
		for _, a := range attrs {
			names[fmt.Sprintf("%s%d", a.prefix, rn.Index)] = view.SlotCol(k, a.name)
		}
	}
	t := &truth{rows: map[uint64]bool{}, n: rel.Len()}
	for _, c := range rel.Cols {
		n, ok := names[c]
		if !ok {
			return nil, fmt.Errorf("direct evaluation of %s yields unexpected column %s", q, c)
		}
		t.cols = append(t.cols, n)
	}
	cells := make([]string, len(rel.Cols))
	for _, row := range rel.Rows {
		for i, v := range row {
			cells[i] = v.Render()
		}
		t.rows[rowHash(cells)] = true
	}
	return t, nil
}

// rowHash hashes one rendered row.
func rowHash(cells []string) uint64 {
	h := fnv.New64a()
	for _, c := range cells {
		h.Write([]byte(c))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

// answer is what the benchmark keeps of one /query response for checking.
type answer struct {
	req   request
	epoch int64
	total int
	off   int
	cols  []string
	rows  []uint64
}

// newAnswer reduces a decoded response to its checkable part: the window's
// rows as hashes.
func newAnswer(req request, resp *serve.QueryResponse) answer {
	a := answer{req: req, epoch: resp.Epoch, total: resp.TotalRows, off: resp.Offset, cols: resp.Columns}
	a.rows = make([]uint64, len(resp.Rows))
	for i, row := range resp.Rows {
		a.rows[i] = rowHash(row)
	}
	return a
}

// check compares a response with the direct result: the total must equal
// the direct count, the window must be the one asked for and every row in
// it must belong to the direct result.
func (a answer) check(t *truth) error {
	if strings.Join(a.cols, ",") != strings.Join(t.cols, ",") {
		return fmt.Errorf("%s: columns %v, direct evaluation has %v", a.req.q, a.cols, t.cols)
	}
	if a.total != t.n {
		return fmt.Errorf("%s: total_rows %d at epoch %d, direct evaluation has %d", a.req.q, a.total, a.epoch, t.n)
	}
	want := t.n
	if a.req.limit > 0 {
		off := a.req.offset
		if off > t.n {
			off = t.n
		}
		want = t.n - off
		if want > a.req.limit {
			want = a.req.limit
		}
		if a.off != off {
			return fmt.Errorf("%s: window at offset %d, asked for %d", a.req.q, a.off, off)
		}
	}
	if len(a.rows) != want {
		return fmt.Errorf("%s: %d rows at epoch %d, want %d", a.req.q, len(a.rows), a.epoch, want)
	}
	seen := map[uint64]bool{}
	for _, h := range a.rows {
		if !t.rows[h] {
			return fmt.Errorf("%s: a row at epoch %d is not in the direct result", a.req.q, a.epoch)
		}
		if seen[h] {
			return fmt.Errorf("%s: a row repeats at epoch %d", a.req.q, a.epoch)
		}
		seen[h] = true
	}
	return nil
}

// oracle memoizes direct results per pattern for one document state.
type oracle struct {
	doc   *xmltree.Document
	cache map[string]*truth
}

func newOracle(doc *xmltree.Document) *oracle {
	return &oracle{doc: doc, cache: map[string]*truth{}}
}

func (o *oracle) truth(q string) (*truth, error) {
	if t, ok := o.cache[q]; ok {
		return t, nil
	}
	t, err := evalDirect(q, o.doc)
	if err != nil {
		return nil, err
	}
	o.cache[q] = t
	return t, nil
}

// advance applies one acknowledged batch to the oracle's document and
// forgets every memoized result.
func (o *oracle) advance(b batch) error {
	for i, u := range b.updates {
		if _, err := o.doc.ApplyUpdate(u); err != nil {
			return fmt.Errorf("replaying update %d of a %s batch: %w", i, batchKindNames[b.kind], err)
		}
	}
	o.cache = map[string]*truth{}
	return nil
}
