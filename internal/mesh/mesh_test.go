package mesh

import (
	"testing"
	"testing/quick"
)

func TestGenerateBasics(t *testing.T) {
	for _, nv := range []int{16, 100, 545, 2000} {
		m := Generate(nv, 1)
		if got := m.NumVertices(); got < nv || got > nv+int(2*float64(nv)/10)+64 {
			t.Fatalf("Generate(%d) produced %d vertices", nv, got)
		}
		if m.NumTriangles() == 0 {
			t.Fatalf("Generate(%d): no triangles", nv)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Generate(%d): %v", nv, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(200, 42), Generate(200, 42)
	if a.NumVertices() != b.NumVertices() || a.NumTriangles() != b.NumTriangles() {
		t.Fatal("same seed, different mesh")
	}
	for i := range a.Pts {
		if a.Pts[i] != b.Pts[i] {
			t.Fatal("same seed, different vertex positions")
		}
	}
	c := Generate(200, 43)
	same := true
	for i := range a.Pts {
		if a.Pts[i] != c.Pts[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestEdgesAreUniqueAndSorted(t *testing.T) {
	m := Generate(100, 3)
	edges := m.Edges()
	for i, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not ordered", e)
		}
		if i > 0 {
			p := edges[i-1]
			if p[0] > e[0] || (p[0] == e[0] && p[1] >= e[1]) {
				t.Fatalf("edges not sorted: %v before %v", p, e)
			}
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	m := Generate(150, 9)
	adj := m.Adjacency()
	for v, ns := range adj {
		for _, w := range ns {
			found := false
			for _, x := range adj[w] {
				if x == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%d", v, w)
			}
		}
	}
}

func TestValidateCatchesBadTriangles(t *testing.T) {
	m := &Mesh{Pts: []Point{{0, 0}, {1, 0}, {0, 1}}, Tris: [][3]int{{0, 1, 5}}}
	if err := m.Validate(); err == nil {
		t.Fatal("out-of-range vertex should fail")
	}
	m = &Mesh{Pts: []Point{{0, 0}, {1, 0}, {0, 1}}, Tris: [][3]int{{0, 1, 1}}}
	if err := m.Validate(); err == nil {
		t.Fatal("degenerate triangle should fail")
	}
}

func TestPartitionRCBBalanced(t *testing.T) {
	m := Generate(545, 2)
	for _, p := range []int{2, 8, 32} {
		owner := PartitionRCB(m, p)
		sizes := PartSizes(owner, p)
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("p=%d: imbalanced parts: min %d max %d", p, min, max)
		}
	}
}

func TestPartitionRCBRejectsBadCounts(t *testing.T) {
	m := Generate(64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two parts should panic")
		}
	}()
	PartitionRCB(m, 6)
}

func TestNewPartitionStructures(t *testing.T) {
	m := Generate(545, 5)
	owner := PartitionRCB(m, 32)
	pt, err := NewPartition(m, owner, 32)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	// Every vertex owned exactly once.
	total := 0
	for p := 0; p < 32; p++ {
		total += len(pt.Owned[p])
		for _, v := range pt.Owned[p] {
			if owner[v] != p {
				t.Fatalf("vertex %d in Owned[%d] but owner %d", v, p, owner[v])
			}
		}
	}
	if total != m.NumVertices() {
		t.Fatalf("owned total %d != %d vertices", total, m.NumVertices())
	}
}

func TestSendListsMirrorGhosts(t *testing.T) {
	m := Generate(300, 8)
	owner := PartitionRCB(m, 8)
	pt, err := NewPartition(m, owner, 8)
	if err != nil {
		t.Fatal(err)
	}
	// What p sends to q is exactly owned by p, and appears in q's ghosts.
	for p := 0; p < 8; p++ {
		ghostsOf := make(map[int]bool)
		for _, v := range pt.GhostVertices(p) {
			ghostsOf[v] = true
			if owner[v] == p {
				t.Fatalf("proc %d ghost %d is its own vertex", p, v)
			}
		}
		for q := 0; q < 8; q++ {
			for _, v := range pt.SendVertices(q, p) {
				if owner[v] != q {
					t.Fatalf("proc %d sends vertex %d it does not own", q, v)
				}
				if !ghostsOf[v] {
					t.Fatalf("sent vertex %d missing from proc %d ghosts", v, p)
				}
			}
		}
	}
}

func TestSendListsCoverCutEdges(t *testing.T) {
	m := Generate(300, 8)
	owner := PartitionRCB(m, 8)
	pt, _ := NewPartition(m, owner, 8)
	for _, e := range m.Edges() {
		a, b := e[0], e[1]
		if owner[a] == owner[b] {
			continue
		}
		if !pt.SendList[owner[a]][owner[b]][a] {
			t.Fatalf("cut edge (%d,%d): %d not in send list %d->%d", a, b, a, owner[a], owner[b])
		}
		if !pt.SendList[owner[b]][owner[a]][b] {
			t.Fatalf("cut edge (%d,%d): %d not in send list %d->%d", a, b, b, owner[b], owner[a])
		}
	}
}

func TestHaloPatternProperties(t *testing.T) {
	m := Generate(2000, 12)
	owner := PartitionRCB(m, 32)
	pt, _ := NewPartition(m, owner, 32)
	pat := pt.HaloPattern(8)
	if err := pat.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !pat.IsSymmetricShape() {
		t.Fatal("halo patterns are symmetric in shape")
	}
	d := pat.Density()
	// Planar RCB partitions have sparse processor graphs: the paper's
	// real problems range 9-44%.
	if d <= 0.03 || d >= 0.6 {
		t.Fatalf("density %.2f implausible for a planar mesh", d)
	}
}

func TestHaloPatternScalesWithBytesPerVertex(t *testing.T) {
	m := Generate(500, 4)
	owner := PartitionRCB(m, 8)
	pt, _ := NewPartition(m, owner, 8)
	p8 := pt.HaloPattern(8)
	p32 := pt.HaloPattern(32)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if p32[i][j] != 4*p8[i][j] {
				t.Fatalf("scaling broken at [%d][%d]", i, j)
			}
		}
	}
}

func TestNewPartitionValidation(t *testing.T) {
	m := Generate(64, 1)
	if _, err := NewPartition(m, make([]int, 3), 4); err == nil {
		t.Fatal("short owner vector should fail")
	}
	bad := make([]int, m.NumVertices())
	bad[0] = 99
	if _, err := NewPartition(m, bad, 4); err == nil {
		t.Fatal("out-of-range owner should fail")
	}
}

// Every processor of a connected mesh exchanges halos with at least
// one other, and none with all of them: the halo pattern's row counts.
func TestNeighborCounts(t *testing.T) {
	m := Generate(1000, 6)
	owner := PartitionRCB(m, 16)
	pt, _ := NewPartition(m, owner, 16)
	halo := pt.HaloPattern(1)
	for p, row := range halo {
		c := 0
		for _, b := range row {
			if b > 0 {
				c++
			}
		}
		if c == 0 {
			t.Fatalf("proc %d has no neighbors in a connected mesh", p)
		}
		if c >= 16 {
			t.Fatalf("proc %d claims %d neighbors", p, c)
		}
	}
}

// Property: partitioning any generated mesh keeps ownership within range
// and halo patterns structurally valid.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64, nvRaw uint16, pIdx uint8) bool {
		nv := 64 + int(nvRaw%1000)
		ps := []int{2, 4, 8, 16}
		p := ps[int(pIdx)%len(ps)]
		m := Generate(nv, seed)
		owner := PartitionRCB(m, p)
		pt, err := NewPartition(m, owner, p)
		if err != nil {
			return false
		}
		pat := pt.HaloPattern(8)
		return pat.Validate() == nil && pat.IsSymmetricShape()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWideHaloPatternSupersetsOneHop(t *testing.T) {
	m := Generate(800, 21)
	owner := PartitionRCB(m, 16)
	pt, _ := NewPartition(m, owner, 16)
	one := pt.HaloPattern(8)
	wide := pt.WideHaloPattern(8)
	if err := wide.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !wide.IsSymmetricShape() {
		t.Fatal("wide halo must be symmetric in shape")
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if wide[i][j] < one[i][j] {
				t.Fatalf("wide halo smaller than one-hop at [%d][%d]: %d < %d",
					i, j, wide[i][j], one[i][j])
			}
		}
	}
	if wide.TotalBytes() <= one.TotalBytes() {
		t.Fatal("wide halo should move strictly more data")
	}
	if wide.Density() < one.Density() {
		t.Fatal("wide halo should not lower density")
	}
}
