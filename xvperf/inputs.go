package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/pattern"
	"xmlviews/internal/xmltree"
)

// docScale is the XMark scale of the generated document: 200 items per
// region, 400 people, 400 open and 200 closed auctions, 51 categories
// (about 44 k nodes, 1 MB of XML).
const docScale = 200

// viewDefs is the stored view set. Each element a query shape returns is
// covered by exactly one view, so every shape has a single-view rewriting;
// vcat carries content (description subtrees).
var viewDefs = []struct{ name, pat string }{
	{"vperson", `site(/people(/person[id](/name[v] /emailaddress[v])))`},
	{"vopen", `site(/open_auctions(/open_auction[id](/initial[v] /current[v])))`},
	{"vclosed", `site(/closed_auctions(/closed_auction[id](/price[v])))`},
	{"vcat", `site(/categories(/category[id](/name[v] /description[c])))`},
}

func buildViews() []*core.View {
	views := make([]*core.View, len(viewDefs))
	for i, d := range viewDefs {
		views[i] = &core.View{Name: d.name, Pattern: pattern.MustParse(d.pat), DerivableParentIDs: true}
	}
	return views
}

// generate builds the seeded XMark document.
func generate(seed int64) *xmltree.Document {
	return datagen.XMark(docScale, seed)
}

// request is one /query request: a pattern plus an optional window. A
// zero limit sends no limit parameter (the full result).
type request struct {
	q      string
	limit  int
	offset int
}

func (r request) values() url.Values {
	v := url.Values{"q": {r.q}}
	if r.limit > 0 {
		v.Set("limit", strconv.Itoa(r.limit))
		v.Set("offset", strconv.Itoa(r.offset))
	}
	return v
}

// warmPatterns are the query shapes of warm_read (and of read_write_mix's
// reader): results of 51 to 400 rows, two of them over the content-bearing
// view.
var warmPatterns = []string{
	`site(//person[id](/name[v]))`,
	`site(//person[id](/name[v] /emailaddress[v]))`,
	`site(//open_auction[id](/initial[v] /current[v]))`,
	`site(//open_auction[id](/current[v]{v>100}))`,
	`site(//closed_auction[id](/price[v]))`,
	`site(//closed_auction[id](/price[v]{v>150}))`,
	`site(//category[id](/name[v] /description[c]))`,
	`site(//category[id](/description[c]))`,
}

// pageSize is the window of paged requests.
const pageSize = 10

// warmRequests returns the twelve warm requests: every warm pattern in
// full, plus paged windows over four of them at seeded offsets.
func warmRequests(seed int64) []request {
	r := rand.New(rand.NewSource(seed ^ 0x5eed0001))
	var out []request
	for _, q := range warmPatterns {
		out = append(out, request{q: q})
	}
	// Offsets stay below the smallest cardinality the paged shapes can
	// reach (person and open_auction extents hold 400 rows, closed_auction
	// 200, and updates keep the person count balanced).
	for _, p := range []struct{ i, max int }{{0, 390}, {1, 390}, {2, 390}, {4, 190}} {
		out = append(out, request{q: warmPatterns[p.i], limit: pageSize, offset: r.Intn(p.max)})
	}
	return out
}

// coldTemplates render cold_query's shapes: each targets an element with
// one summary path and carries a seeded constant, so every shape of a run
// is new to the plan cache and selects few rows.
var coldTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string {
		return fmt.Sprintf(`site(//closed_auction[id](/price[v]{v>%.3f}))`, 280+20*r.Float64())
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`site(//open_auction[id](/initial[v]{v>%.3f}))`, 95+5*r.Float64())
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`site(//open_auction[id](/current[v]{v>%.3f} /initial[v]))`, 190+10*r.Float64())
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`site(//person[id](/name[v]{v="%s %s"}))`, word(r), word(r))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`site(//person[id](/emailaddress[v]{v="mailto:p%d@example.com"}))`, r.Intn(2*docScale))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`site(//category[id](/name[v]{v="%s" | v="%s"} /description[c]))`, word(r), word(r))
	},
}

// coldStream yields cold_query's shapes: whole rounds of one shape per
// template, in seeded order, never repeating a shape within the stream.
type coldStream struct {
	r    *rand.Rand
	seen map[string]bool
	// round holds the rest of the current round's template indexes.
	round []int
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{r: rand.New(rand.NewSource(seed ^ 0x5eed0002)), seen: map[string]bool{}}
}

func (c *coldStream) next() string {
	if len(c.round) == 0 {
		c.round = c.r.Perm(len(coldTemplates))
	}
	t := coldTemplates[c.round[0]]
	c.round = c.round[1:]
	// Every template has hundreds of distinct shapes, far more than a run
	// draws; the bound only keeps a drained template from spinning.
	q := t(c.r)
	for tries := 0; c.seen[q] && tries < 1000; tries++ {
		q = t(c.r)
	}
	c.seen[q] = true
	return q
}

// The words of the generator's text values (internal/datagen).
var words = []string{
	"Columbus", "fountain", "pen", "Invincia", "Monteverdi", "stainless",
	"steel", "gold", "plated", "italic", "nib", "vintage", "rare", "lot",
	"mint", "boxed", "antique", "silver", "walnut", "ebony",
}

func word(r *rand.Rand) string { return words[r.Intn(len(words))] }

// Update batch kinds, in the order one round sends them.
const (
	batchCovered   = iota // settext on values stored by vperson and vclosed
	batchInsert           // insert one person subtree
	batchDelete           // delete the person the previous batch inserted
	batchUncovered        // settext on item values no view stores
	batchKinds
)

var batchKindNames = [batchKinds]string{"covered", "insert", "delete", "uncovered"}

// batch is one /update request body and its decoded updates.
type batch struct {
	kind    int
	body    []byte
	updates []xmltree.Update
}

// genBatches derives n update batches from the document by applying each to
// doc as it is generated, so node identifiers of inserted subtrees are
// known to later batches. The first batch is an uncovered warm-up (sent
// during set-up); the rest cycle through whole rounds of the four kinds.
// doc is consumed.
func genBatches(doc *xmltree.Document, seed int64, n int) ([]batch, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed0003))
	people := childByLabel(doc.Root, "people")
	closed := childByLabel(doc.Root, "closed_auctions")
	regions := childByLabel(doc.Root, "regions")
	if people == nil || closed == nil || regions == nil {
		return nil, fmt.Errorf("generated document lacks people, closed_auctions or regions")
	}
	// Covered settexts target original people only: the inserted one is
	// deleted by the next batch, and targets must exist when their batch
	// applies.
	persons := childrenByLabel(people, "person")
	auctions := childrenByLabel(closed, "closed_auction")
	var items []*xmltree.Node
	for _, reg := range regions.Children {
		items = append(items, childrenByLabel(reg, "item")...)
	}
	var inserted nodeid.ID
	out := make([]batch, 0, n)
	for i := 0; i < n; i++ {
		kind := batchUncovered
		if i > 0 {
			kind = (i - 1) % batchKinds
		}
		var ups []xmltree.Update
		switch kind {
		case batchCovered:
			p := persons[r.Intn(len(persons))]
			a := auctions[r.Intn(len(auctions))]
			ups = []xmltree.Update{
				{Kind: xmltree.UpdateSetValue, Target: childByLabel(p, "name").ID, Value: word(r) + " " + word(r)},
				{Kind: xmltree.UpdateSetValue, Target: childByLabel(a, "price").ID, Value: fmt.Sprintf("%.2f", 1+300*r.Float64())},
			}
		case batchInsert:
			k := 100000 + i
			sub, err := xmltree.ParseParen(fmt.Sprintf(`person(@id "person%d" name "%s %s" emailaddress "mailto:p%d@example.com")`,
				k, word(r), word(r), k))
			if err != nil {
				return nil, err
			}
			ups = []xmltree.Update{{Kind: xmltree.UpdateInsert, Parent: people.ID, Subtree: sub}}
		case batchDelete:
			ups = []xmltree.Update{{Kind: xmltree.UpdateDelete, Target: inserted}}
		case batchUncovered:
			it := items[r.Intn(len(items))]
			ups = []xmltree.Update{
				{Kind: xmltree.UpdateSetValue, Target: childByLabel(it, "location").ID, Value: word(r) + " " + word(r)},
				{Kind: xmltree.UpdateSetValue, Target: childByLabel(it, "payment").ID, Value: word(r)},
			}
		}
		// Encode before applying: the wire form carries the identifiers
		// as they are before the batch.
		body, err := maintain.EncodeUpdates(ups)
		if err != nil {
			return nil, err
		}
		for _, u := range ups {
			nd, err := doc.ApplyUpdate(u)
			if err != nil {
				return nil, fmt.Errorf("generating batch %d: %w", i, err)
			}
			if kind == batchInsert {
				inserted = nd.ID
			}
		}
		// Decode the body again so the benchmark replays exactly what the
		// daemon parses.
		decoded, err := maintain.ParseUpdates(body)
		if err != nil {
			return nil, err
		}
		out = append(out, batch{kind: kind, body: body, updates: decoded})
	}
	return out, nil
}

func childByLabel(n *xmltree.Node, label string) *xmltree.Node {
	for _, c := range n.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

func childrenByLabel(n *xmltree.Node, label string) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range n.Children {
		if c.Label == label {
			out = append(out, c)
		}
	}
	return out
}
