package topo_test

// The checks below pin the CM-5's 4-ary fat-tree grouping as
// topo.FatTree implements it: level counts, accepted machine sizes,
// cluster membership, least-common-ancestor (LCA) depth, routes, link
// names and root crossings, each phrased in terms of the grouping
// definition (node a's level-l cluster is a / 4^l; see refCluster).

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/topo"
)

func newTree(t *testing.T, n int) *topo.FatTree {
	t.Helper()
	ft, err := topo.NewFatTree(n, testRates)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// routeNames returns the names of the links on the route a -> b,
// space-separated.
func routeNames(ft *topo.FatTree, a, b int) string {
	var names []string
	for _, li := range ft.RouteAppend(nil, a, b) {
		names = append(names, ft.Link(li).Name)
	}
	return strings.Join(names, " ")
}

func TestNewValidSizes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 16384} {
		if ft := newTree(t, n); ft.N() != n {
			t.Fatalf("N() = %d, want %d", ft.N(), n)
		}
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-4, 0, 1, 3, 6, 12, 100, 1000, 32768} {
		_, err := topo.FatTreeLevels(n)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("[2, %d]", topo.MaxNodes)) {
			t.Errorf("FatTreeLevels(%d): %v, want an error naming the size range", n, err)
		}
		if _, err := topo.NewFatTree(n, testRates); err == nil {
			t.Errorf("NewFatTree(%d) should fail", n)
		}
	}
}

// A machine must sit on a fat tree the grouping accepts, so the
// machine constructor refuses the sizes the tree rejects.
func TestNewMachineRejectsBadSizes(t *testing.T) {
	for _, n := range []int{3, 32768} {
		if _, err := cmmd.NewMachine(n, network.DefaultConfig()); err == nil {
			t.Errorf("NewMachine(%d) should fail", n)
		}
	}
}

func TestLevels(t *testing.T) {
	for _, c := range []struct{ n, levels int }{
		{2, 1}, {4, 1}, {8, 2}, {16, 2}, {32, 3}, {64, 3}, {128, 4}, {256, 4}, {1024, 5}, {16384, 7},
	} {
		if got, err := topo.FatTreeLevels(c.n); err != nil || got != c.levels {
			t.Errorf("FatTreeLevels(%d) = %d, %v; want %d", c.n, got, err, c.levels)
		}
	}
}

// Cluster membership shows in the bundles a route climbs and descends.
func TestGroup(t *testing.T) {
	ft := newTree(t, 32)
	for _, c := range []struct {
		a, b int
		want string
	}{
		// Level 1: clusters of 4.
		{0, 3, "L0/0/up L0/3/down"},
		{3, 4, "L0/3/up L1/0/up L1/1/down L0/4/down"},
		{31, 28, "L0/31/up L0/28/down"},
		{31, 27, "L0/31/up L1/7/up L1/6/down L0/27/down"},
		// Level 2: clusters of 16.
		{15, 16, "L0/15/up L1/3/up L2/0/up L2/1/down L1/4/down L0/16/down"},
		{16, 31, "L0/16/up L1/4/up L1/7/down L0/31/down"},
	} {
		if got := routeNames(ft, c.a, c.b); got != c.want {
			t.Errorf("route %d->%d = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// refCap is the calibrated CM-5 capacity of a level's links: 20 MB/s
// node links, 40 MB/s cluster-of-4 uplinks, and 4^l * 5 MB/s above.
func refCap(level int) float64 {
	switch level {
	case 0:
		return 20e6
	case 1:
		return 40e6
	}
	return float64(int(1)<<(2*level)) * 5e6
}

// Every level l below the root has n / 4^l clusters of 4^l nodes (at
// least one), and each has an uplink and a downlink bundle: the link
// index space lists each node's injection and ejection links, then the
// bundles level by level, cluster by cluster.
func TestGroupSizeAndNumGroups(t *testing.T) {
	for _, n := range []int{2, 8, 16, 32, 64, 256} {
		ft := newTree(t, n)
		levels, _ := topo.FatTreeLevels(n)
		i := 0
		for l := 0; l < levels; l++ {
			size := 1 << (2 * l)
			for g := 0; g*size < n; g++ {
				for _, dir := range []string{"up", "down"} {
					want := fmt.Sprintf("L%d/%d/%s", l, g, dir)
					if li := ft.Link(i); li.Name != want || li.Level != l || li.Cap != refCap(l) {
						t.Fatalf("n=%d link %d = %+v, want %s at %v", n, i, li, want, refCap(l))
					}
					i++
				}
			}
		}
		if ft.NumLinks() != i {
			t.Fatalf("n=%d: %d links, want %d", n, ft.NumLinks(), i)
		}
	}
}

// A route is 2*LCA links long, so its length pins the LCA level.
func TestLCALevel(t *testing.T) {
	ft := newTree(t, 64)
	for _, c := range []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 1}, {0, 4, 2}, {0, 15, 2}, {0, 16, 3},
		{0, 63, 3}, {5, 7, 1}, {17, 30, 2}, {20, 52, 3},
	} {
		if got := len(ft.RouteAppend(nil, c.a, c.b)) / 2; got != c.want {
			t.Errorf("LCA(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCALevelSymmetric(t *testing.T) {
	ft := newTree(t, 32)
	for a := 0; a < 32; a++ {
		for b := 0; b < 32; b++ {
			if len(ft.RouteAppend(nil, a, b)) != len(ft.RouteAppend(nil, b, a)) {
				t.Fatalf("LCA not symmetric for (%d,%d)", a, b)
			}
		}
	}
}

func TestRouteLocalIsNil(t *testing.T) {
	if r := newTree(t, 8).RouteAppend(nil, 3, 3); r != nil {
		t.Fatalf("route 3->3 = %v, want nil", r)
	}
}

func TestRouteNeighbors(t *testing.T) {
	if got, want := routeNames(newTree(t, 8), 0, 1), "L0/0/up L0/1/down"; got != want {
		t.Fatalf("route 0->1 = %s, want %s", got, want)
	}
}

func TestRouteCrossCluster(t *testing.T) {
	// 0 -> 20: LCA level 3 (different 16-clusters).
	got := routeNames(newTree(t, 32), 0, 20)
	if want := "L0/0/up L1/0/up L2/0/up L2/1/down L1/5/down L0/20/down"; got != want {
		t.Fatalf("route 0->20 = %s, want %s", got, want)
	}
}

func TestRouteEndpointsAlwaysPresent(t *testing.T) {
	ft := newTree(t, 64)
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			if a == b {
				continue
			}
			r := ft.RouteAppend(nil, a, b)
			if len(r) < 2 {
				t.Fatalf("route %d->%d too short: %v", a, b, r)
			}
			if first := ft.Link(r[0]).Name; first != fmt.Sprintf("L0/%d/up", a) {
				t.Fatalf("route %d->%d first link %s", a, b, first)
			}
			if last := ft.Link(r[len(r)-1]).Name; last != fmt.Sprintf("L0/%d/down", b) {
				t.Fatalf("route %d->%d last link %s", a, b, last)
			}
		}
	}
}

func TestRouteLengthMatchesLCA(t *testing.T) {
	ft := newTree(t, 256)
	for a := 0; a < 256; a += 13 {
		for b := 0; b < 256; b += 11 {
			if a == b {
				continue
			}
			if got, want := len(ft.RouteAppend(nil, a, b)), 2*refLCA(a, b); got != want {
				t.Fatalf("len(route %d->%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestLinkIDString(t *testing.T) {
	ft := newTree(t, 256)
	// Node 3's ejection link is index 2*3+1. Level 2's bundles follow
	// the 2*256 node links and the 2*64 level-1 bundles, so cluster 7's
	// uplink is index 512 + 128 + 2*7.
	for i, want := range map[int]string{7: "L0/3/down", 654: "L2/7/up"} {
		if got := ft.Link(i).Name; got != want {
			t.Errorf("Link(%d).Name = %q, want %q", i, got, want)
		}
	}
}

func TestCrossesTop(t *testing.T) {
	ft := newTree(t, 32)
	for _, c := range []struct {
		a, b int
		want bool
	}{
		{0, 0, false},  // self never crosses
		{0, 3, false},  // within a cluster of 4
		{0, 12, false}, // within the first 16
		{0, 16, true},
		{15, 31, true},
	} {
		if got := ft.CrossesTop(c.a, c.b); got != c.want {
			t.Errorf("CrossesTop(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// On 32 nodes exactly the pairs in different 16-node halves meet at the
// root, so each node crosses the top to 16 of its 31 peers.
func TestCrossesTopCountCompleteExchange(t *testing.T) {
	ft := newTree(t, 32)
	for a := 0; a < 32; a++ {
		count := 0
		for b := 0; b < 32; b++ {
			got := ft.CrossesTop(a, b)
			if want := a/16 != b/16; got != want {
				t.Fatalf("CrossesTop(%d, %d) = %v, want %v", a, b, got, want)
			}
			if got {
				count++
			}
		}
		if count != 16 {
			t.Fatalf("node %d crosses top to %d peers, want 16", a, count)
		}
	}
}

// Property: the LCA level of distinct nodes is within [1, levels], and
// a node's route to itself is empty.
func TestQuickLCABounds(t *testing.T) {
	ft := newTree(t, 256)
	levels, _ := topo.FatTreeLevels(256)
	f := func(ar, br uint16) bool {
		a, b := int(ar)%256, int(br)%256
		l := len(ft.RouteAppend(nil, a, b)) / 2
		if a == b {
			return l == 0
		}
		return l >= 1 && l <= levels
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: routes of a->b and b->a are mirror images: the same bundles
// in the opposite order, up and down swapped.
func TestQuickRouteMirror(t *testing.T) {
	ft := newTree(t, 64)
	mirror := strings.NewReplacer("/up", "/down", "/down", "/up")
	f := func(ar, br uint8) bool {
		a, b := int(ar)%64, int(br)%64
		fwd, rev := ft.RouteAppend(nil, a, b), ft.RouteAppend(nil, b, a)
		if len(fwd) != len(rev) {
			return false
		}
		for i, li := range fwd {
			if ft.Link(rev[len(rev)-1-i]).Name != mirror.Replace(ft.Link(li).Name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
