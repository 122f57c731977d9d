package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// The generators below turn (workload, seed, client) into a stream of
// operations. They never look at the database or the clock, so the same seed
// gives the same stream whatever the engine does with it; the engine sees only
// the rows an operation carries.

type opKind uint8

const (
	opTransfer    opKind = iota + 1 // accounts: move amt[0] from id to id2
	opInsert                        // accounts: insert (id, group, amt[0])
	opDelete                        // accounts: delete id
	opNewOrder                      // order_items: insert the 3 items of order id
	opDeleteOrder                   // order_items: delete the 3 items of order id
	opAmend                         // order_items: set item `item` of order id to amt[item]
)

// op is one write transaction's worth of work.
type op struct {
	kind  opKind
	id    int64    // account id, or order id
	id2   int64    // transfer: the receiving account; amend: the amount being replaced
	group int64    // insert: branch; order: customer
	amt   [3]int64 // transfer amount / opening balance / item amounts
	item  int      // amend: which of the order's items
}

// generator yields a client's next write operation.
type generator interface {
	next() op
}

const (
	hotBranches    = 8
	preloadBalance = 1000
	insertBalance  = 10
	// ownHigh caps a client's queue of its own live inserts, so the accounts
	// table stays within a few hundred rows of its preloaded size.
	ownHigh = 256

	customers     = 2000
	regions       = 16
	zipfS         = 1.1
	openOrders    = 1000 // a client deletes only once it holds more than this
	itemsPerOrder = 3
)

// clientBase gives each client a private id space above the preloaded rows,
// so inserts of different clients never collide.
func clientBase(client int) int64 { return int64(client+1) << 32 }

// accountsGen is the hot_escrow_write mix: 50 % transfer between two
// preloaded accounts of the client's own partition, 25 % insert (1 in 4 into
// a fresh one-row branch), 25 % delete of the client's oldest live insert.
type accountsGen struct {
	rng      *rand.Rand
	rows     int64 // preloaded ids are 0..rows-1
	client   int64
	clients  int64
	nextID   int64
	nextBr   int64
	own      []int64 // live inserts, oldest first
	ownStart int
}

func newAccountsGen(seed int64, client, clients, rows int) *accountsGen {
	return &accountsGen{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(client))),
		rows:    int64(rows),
		client:  int64(client),
		clients: int64(clients),
		nextID:  clientBase(client),
		nextBr:  clientBase(client),
	}
}

// ownAccount picks a preloaded account of this client's partition (ids
// congruent to the client number), so two writers never touch the same base
// row: all contention is on the view's hot groups, as in the paper.
func (g *accountsGen) ownAccount() int64 {
	per := g.rows / g.clients
	return g.rng.Int63n(per)*g.clients + g.client
}

func (g *accountsGen) live() int { return len(g.own) - g.ownStart }

func (g *accountsGen) next() op {
	r := g.rng.Intn(4)
	if r < 2 {
		a, b := g.ownAccount(), g.ownAccount()
		for b == a {
			b = g.ownAccount()
		}
		return op{kind: opTransfer, id: a, id2: b, amt: [3]int64{1 + g.rng.Int63n(10)}}
	}
	if (r == 3 && g.live() > 0) || g.live() >= ownHigh {
		id := g.own[g.ownStart]
		g.ownStart++
		if g.ownStart >= ownHigh {
			g.own = append(g.own[:0], g.own[g.ownStart:]...)
			g.ownStart = 0
		}
		return op{kind: opDelete, id: id}
	}
	g.nextID++
	g.own = append(g.own, g.nextID)
	branch := g.rng.Int63n(hotBranches)
	if g.rng.Intn(4) == 0 {
		g.nextBr++
		branch = g.nextBr
	}
	return op{kind: opInsert, id: g.nextID, group: branch, amt: [3]int64{insertBalance}}
}

// rollupGen is the rollup_deferred_write mix: insert one 3-item order for a
// Zipf-popular customer, or — half the time once the client holds more than
// openOrders — delete its oldest order whole. One transaction in 16 amends an
// item of the client's newest order (a Get and an Update), so every statement
// kind has a span on every workload.
type rollupGen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	nextOrder int64
	open      []order // live orders, oldest first
	openStart int
}

type order struct {
	id  int64
	amt [3]int64
}

func newRollupGen(seed int64, client int) *rollupGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	return &rollupGen{
		rng:       rng,
		zipf:      rand.NewZipf(rng, zipfS, 1, customers-1),
		nextOrder: clientBase(client),
	}
}

func (g *rollupGen) live() int { return len(g.open) - g.openStart }

func (g *rollupGen) next() op {
	if g.live() > openOrders && g.rng.Intn(2) == 0 {
		o := g.open[g.openStart]
		g.openStart++
		if g.openStart >= openOrders {
			g.open = append(g.open[:0], g.open[g.openStart:]...)
			g.openStart = 0
		}
		return op{kind: opDeleteOrder, id: o.id}
	}
	if g.live() > 0 && g.rng.Intn(16) == 0 {
		o := &g.open[len(g.open)-1]
		item := g.rng.Intn(itemsPerOrder)
		old := o.amt[item]
		o.amt[item] = 10 + g.rng.Int63n(90)
		return op{kind: opAmend, id: o.id, id2: old, item: item, amt: o.amt}
	}
	g.nextOrder++
	o := order{id: g.nextOrder}
	for i := range o.amt {
		o.amt[i] = 10 + g.rng.Int63n(90)
	}
	g.open = append(g.open, o)
	return op{kind: opNewOrder, id: o.id, group: int64(g.zipf.Uint64()), amt: o.amt}
}

// regionNames are the 16 region keys; a customer's region never changes.
var regionNames = func() [regions]string {
	var names [regions]string
	for i := range names {
		names[i] = fmt.Sprintf("region-%02d", i)
	}
	return names
}()

func regionOf(customer int64) string { return regionNames[customer%regions] }

// itemID is the primary key of one item of an order.
func itemID(order int64, item int) int64 { return order*4 + int64(item) }

// streamHash hashes the first n operations the clients of a workload would
// issue, interleaved round-robin. Two runs with one seed must agree on it.
func streamHash(gens []generator, n int) uint64 {
	h := fnv.New64a()
	var buf [8 * 8]byte
	for i := 0; i < n; i++ {
		o := gens[i%len(gens)].next()
		for j, v := range [8]int64{int64(o.kind), o.id, o.id2, o.group, o.amt[0], o.amt[1], o.amt[2], int64(o.item)} {
			binary.LittleEndian.PutUint64(buf[j*8:], uint64(v))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
