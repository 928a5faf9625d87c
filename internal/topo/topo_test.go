package topo_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/topo"
)

var testRates = topo.Rates{NodeLink: 20e6, Cluster4Up: 40e6, ThinPerNode: 5e6}

// routeCheck validates the generic route invariants for every pair of
// an n-node topology: routes start at src's injection link, end at
// dst's ejection link, stay in range, never repeat a link, and are
// empty exactly for src == dst.
func routeCheck(t *testing.T, tp topo.Topology) {
	t.Helper()
	n := tp.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			route := tp.RouteAppend(nil, src, dst)
			if src == dst {
				if len(route) != 0 {
					t.Fatalf("%s: self-route %d->%d not empty: %v", tp.Name(), src, dst, route)
				}
				continue
			}
			if len(route) < 2 {
				t.Fatalf("%s: route %d->%d too short: %v", tp.Name(), src, dst, route)
			}
			if route[0] != 2*src || route[len(route)-1] != 2*dst+1 {
				t.Fatalf("%s: route %d->%d must start at injection and end at ejection: %v",
					tp.Name(), src, dst, route)
			}
			seen := map[int]bool{}
			for _, l := range route {
				if l < 0 || l >= tp.NumLinks() {
					t.Fatalf("%s: route %d->%d link %d out of range [0,%d)",
						tp.Name(), src, dst, l, tp.NumLinks())
				}
				if seen[l] {
					t.Fatalf("%s: route %d->%d repeats link %d (%s)",
						tp.Name(), src, dst, l, tp.Link(l).Name)
				}
				seen[l] = true
				if c := tp.Link(l).Cap; !(c > 0) {
					t.Fatalf("%s: link %d (%s) capacity %v not positive",
						tp.Name(), l, tp.Link(l).Name, c)
				}
			}
		}
	}
}

func TestRegistryRoutesAllSizes(t *testing.T) {
	for _, name := range topo.Names() {
		for _, n := range []int{2, 4, 8, 16, 32, 64} {
			tp, err := topo.New(name, n, testRates)
			if err != nil {
				t.Fatalf("New(%s, %d): %v", name, n, err)
			}
			if tp.N() != n {
				t.Fatalf("New(%s, %d).N() = %d", name, n, tp.N())
			}
			routeCheck(t, tp)
		}
	}
}

// refLink is one link of the reference fat tree: the bundle joining a
// level-l cluster of 4^l nodes (a single node at level 0) to the level
// above, in one direction.
type refLink struct {
	level, group int
	up           bool
}

func (l refLink) String() string {
	dir := "down"
	if l.up {
		dir = "up"
	}
	return fmt.Sprintf("L%d/%d/%s", l.level, l.group, dir)
}

// refCluster returns the index of the level-l cluster holding node: the
// nodes are laid out in clusters of 4^l consecutive ids.
func refCluster(node, level int) int { return node / (1 << (2 * level)) }

// refLCA returns the smallest level at which distinct nodes a and b
// share a cluster.
func refLCA(a, b int) int {
	l := 1
	for refCluster(a, l) != refCluster(b, l) {
		l++
	}
	return l
}

// refRoute is the fat-tree route written from the grouping definition:
// src's injection link, the uplinks of src's clusters below the LCA,
// the downlinks of dst's clusters below it, and dst's ejection link.
func refRoute(src, dst int) []refLink {
	if src == dst {
		return nil
	}
	lca := refLCA(src, dst)
	route := []refLink{{0, src, true}}
	for l := 1; l < lca; l++ {
		route = append(route, refLink{l, refCluster(src, l), true})
	}
	for l := lca - 1; l >= 1; l-- {
		route = append(route, refLink{l, refCluster(dst, l), false})
	}
	return append(route, refLink{0, dst, false})
}

// The fat tree must route every pair exactly as the grouping definition
// says: same links, same traversal order.
func TestFatTreeMatchesOriginalRouting(t *testing.T) {
	for _, n := range []int{2, 8, 16, 32, 64} {
		ft, err := topo.NewFatTree(n, testRates)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := refRoute(src, dst)
				got := ft.RouteAppend(nil, src, dst)
				if len(got) != len(want) {
					t.Fatalf("n=%d %d->%d: %d links, reference %d", n, src, dst, len(got), len(want))
				}
				for i, li := range got {
					if name := ft.Link(li).Name; name != want[i].String() {
						t.Fatalf("n=%d %d->%d hop %d: %s, reference %s", n, src, dst, i, name, want[i])
					}
				}
			}
		}
	}
}

func TestFatTreeOutOfRangePanics(t *testing.T) {
	ft, err := topo.NewFatTree(8, testRates)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"route from node 8":  func() { ft.RouteAppend(nil, 8, 0) },
		"route to node -1":   func() { ft.RouteAppend(nil, 0, -1) },
		"crosses from 9":     func() { ft.CrossesTop(9, 0) },
		"link past the last": func() { ft.Link(ft.NumLinks()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTaperedFatTreeCaps(t *testing.T) {
	ft, err := topo.NewTaperedFatTree(64, 20e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Level-1 uplink: 4 nodes * 20e6 * 0.5 = 40e6; level-2: 16 * 20e6 * 0.25 = 80e6.
	wantByLevel := map[int]float64{1: 40e6, 2: 80e6}
	seen := map[int]bool{}
	for i := 0; i < ft.NumLinks(); i++ {
		l := ft.Link(i)
		if l.Level == 0 {
			continue
		}
		if l.Cap != wantByLevel[l.Level] {
			t.Fatalf("level %d cap %v, want %v", l.Level, l.Cap, wantByLevel[l.Level])
		}
		seen[l.Level] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("expected levels 1 and 2 to exist, saw %v", seen)
	}
}

func TestTorusRouting(t *testing.T) {
	tor, err := topo.NewTorus([]int{4, 4}, 20e6, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 3 in a 4-ring wraps backward: one hop, not three.
	route := tor.RouteAppend(nil, 0, 3)
	if len(route) != 3 {
		t.Fatalf("0->3 on a 4x4 torus should be inject + 1 wrap hop + eject, got %d links", len(route))
	}
	if name := tor.Link(route[1]).Name; !strings.Contains(name, "-d0") {
		t.Fatalf("0->3 should wrap negatively in dim 0, crossed %s", name)
	}
	// 0 -> 10 = (2,2): two hops per dimension.
	if route := tor.RouteAppend(nil, 0, 10); len(route) != 6 {
		t.Fatalf("0->10 should take 4 hops + node links, got %d", len(route))
	}
}

func TestHypercubeRouting(t *testing.T) {
	h, err := topo.NewHypercube(16, 20e6, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	// 5 -> 10 differs in all 4 bits: 4 cube hops, lowest dimension first.
	route := h.RouteAppend(nil, 5, 10)
	if len(route) != 6 {
		t.Fatalf("5->10 should take 4 cube hops + node links, got %d", len(route))
	}
	wantHops := []string{"cube/n5/d0", "cube/n4/d1", "cube/n6/d2", "cube/n2/d3"}
	for i, want := range wantHops {
		if got := h.Link(route[1+i]).Name; got != want {
			t.Fatalf("hop %d: %s, want %s", i, got, want)
		}
	}
}

func TestDragonflyRouting(t *testing.T) {
	df, err := topo.NewDragonfly(4, 4, 20e6, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-group: inject, router, eject.
	if route := df.RouteAppend(nil, 0, 1); len(route) != 3 {
		t.Fatalf("intra-group route should have 3 links, got %d", len(route))
	}
	// Inter-group: inject, router, global, router, eject.
	route := df.RouteAppend(nil, 0, 5)
	if len(route) != 5 {
		t.Fatalf("inter-group route should have 5 links, got %d", len(route))
	}
	if name := df.Link(route[2]).Name; name != "global/g0-g1" {
		t.Fatalf("middle hop should be the g0->g1 global link, got %s", name)
	}
	if lvl := df.Link(route[2]).Level; lvl != 2 {
		t.Fatalf("global link level = %d, want 2", lvl)
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"fat-tree bad size", func() error { _, err := topo.NewFatTree(3, testRates); return err }},
		{"fat-tree zero rate", func() error {
			_, err := topo.NewFatTree(16, topo.Rates{NodeLink: 0, Cluster4Up: 1, ThinPerNode: 1})
			return err
		}},
		{"tapered bad ratio", func() error { _, err := topo.NewTaperedFatTree(16, 20e6, 0); return err }},
		{"tapered ratio > 1", func() error { _, err := topo.NewTaperedFatTree(16, 20e6, 1.5); return err }},
		{"torus bad dim", func() error { _, err := topo.NewTorus([]int{0, 4}, 1, 1); return err }},
		{"torus no dims", func() error { _, err := topo.NewTorus(nil, 1, 1); return err }},
		{"torus one node", func() error { _, err := topo.NewTorus([]int{1}, 1, 1); return err }},
		{"torus bad rate", func() error { _, err := topo.NewTorus([]int{4, 4}, -1, 1); return err }},
		{"hypercube bad size", func() error { _, err := topo.NewHypercube(12, 1, 1); return err }},
		{"hypercube bad rate", func() error { _, err := topo.NewHypercube(16, 1, 0); return err }},
		{"dragonfly one group", func() error { _, err := topo.NewDragonfly(1, 8, 1, 1); return err }},
		{"dragonfly bad rate", func() error { _, err := topo.NewDragonfly(4, 4, 1, -2); return err }},
		{"registry bad size", func() error { _, err := topo.New("fat-tree", 12, testRates); return err }},
	}
	for _, c := range cases {
		if err := c.err(); err == nil {
			t.Errorf("%s: expected a descriptive error, got nil", c.name)
		}
	}
}

func TestUnknownTopologyListsNames(t *testing.T) {
	_, err := topo.New("moebius", 16, testRates)
	if !errors.Is(err, topo.ErrUnknownTopology) {
		t.Fatalf("expected ErrUnknownTopology, got %v", err)
	}
	for _, name := range topo.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error should list %q: %v", name, err)
		}
	}
}

func TestDocCoversEveryName(t *testing.T) {
	for _, name := range topo.Names() {
		if topo.Doc(name) == "" {
			t.Errorf("no doc line for topology %q", name)
		}
	}
	if topo.Doc("moebius") != "" {
		t.Errorf("unknown names should have empty docs")
	}
}

func ExampleNew() {
	tp, _ := topo.New("hypercube", 8, topo.Rates{NodeLink: 20e6, Cluster4Up: 40e6, ThinPerNode: 5e6})
	route := tp.RouteAppend(nil, 0, 7)
	fmt.Println(tp.Name(), len(route))
	// Output: hypercube(3d) 5
}
