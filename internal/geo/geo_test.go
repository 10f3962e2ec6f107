package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWorldValid(t *testing.T) {
	w := World()
	if !w.Valid() {
		t.Fatal("world rect invalid")
	}
	if w.Area() != 180*360 {
		t.Errorf("area = %v", w.Area())
	}
}

func TestQuadrantsPartition(t *testing.T) {
	r := Rect{South: 0, West: 0, North: 40, East: 80}
	qs := r.Quadrants()
	var area float64
	for _, q := range qs {
		if !q.Valid() {
			t.Errorf("invalid quadrant %v", q)
		}
		area += q.Area()
	}
	if math.Abs(area-r.Area()) > 1e-9 {
		t.Errorf("quadrant area sum %v != %v", area, r.Area())
	}
	// Quadrants must not overlap.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			a, b := qs[i], qs[j]
			if a.West < b.East && b.West < a.East && a.South < b.North && b.South < a.North {
				t.Errorf("quadrants %d and %d intersect", i, j)
			}
		}
	}
}

// Property: every point in a rect lands in exactly one quadrant.
func TestQuadrantContainsProperty(t *testing.T) {
	f := func(latSeed, lonSeed float64) bool {
		if math.IsNaN(latSeed) || math.IsNaN(lonSeed) || math.IsInf(latSeed, 0) || math.IsInf(lonSeed, 0) {
			return true
		}
		p := Point{
			Lat: math.Mod(math.Abs(latSeed), 180) - 90,
			Lon: math.Mod(math.Abs(lonSeed), 360) - 180,
		}
		w := World()
		if !w.Contains(p) {
			return true // north/east boundary points excluded by design
		}
		count := 0
		for _, q := range w.Quadrants() {
			if q.Contains(p) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsEdges(t *testing.T) {
	r := Rect{South: 0, West: 0, North: 10, East: 10}
	if !r.Contains(Point{Lat: 0, Lon: 0}) {
		t.Error("south-west corner must be inside")
	}
	if r.Contains(Point{Lat: 10, Lon: 5}) {
		t.Error("north edge must be outside")
	}
	if r.Contains(Point{Lat: 5, Lon: 10}) {
		t.Error("east edge must be outside")
	}
}

func TestLocalHourOffset(t *testing.T) {
	cases := []struct {
		lon  float64
		want int
	}{{0, 0}, {15, 1}, {-15, -1}, {179, 12}, {-179, -12}, {7.4, 0}, {7.6, 1}}
	for _, c := range cases {
		if got := LocalHourOffset(c.lon); got != c.want {
			t.Errorf("LocalHourOffset(%v) = %d, want %d", c.lon, got, c.want)
		}
	}
}

func TestLocalHourWraps(t *testing.T) {
	if h := LocalHour(23, 30); h != 1 {
		t.Errorf("LocalHour(23, 30E) = %v, want 1", h)
	}
	if h := LocalHour(1, -45); h != 22 {
		t.Errorf("LocalHour(1, 45W) = %v, want 22", h)
	}
}

func TestRegionsWeights(t *testing.T) {
	var sum float64
	for _, r := range Regions() {
		if !r.Bounds.Valid() {
			t.Errorf("region %s bounds invalid", r.Name)
		}
		if r.Weight <= 0 {
			t.Errorf("region %s has non-positive weight", r.Name)
		}
		sum += r.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("region weights sum to %v, want 1", sum)
	}
}

func TestDistanceKm(t *testing.T) {
	// Zero distance.
	p := Point{Lat: 48.9, Lon: 2.3}
	if d := DistanceKm(p, p); d != 0 {
		t.Errorf("DistanceKm(p, p) = %v, want 0", d)
	}
	// Paris ↔ New York is ~5840 km; accept a few percent (spherical model).
	ny := Point{Lat: 40.7, Lon: -74.0}
	d := DistanceKm(p, ny)
	if d < 5500 || d > 6100 {
		t.Errorf("Paris-NY = %v km, want ~5840", d)
	}
	if d2 := DistanceKm(ny, p); math.Abs(d-d2) > 1e-9 {
		t.Errorf("distance not symmetric: %v vs %v", d, d2)
	}
	// Antipodal points are half the circumference (~20015 km).
	a := Point{Lat: 0, Lon: 0}
	b := Point{Lat: 0, Lon: 180}
	if d := DistanceKm(a, b); math.Abs(d-math.Pi*earthRadiusKm) > 1 {
		t.Errorf("antipodal distance = %v", d)
	}
}

func TestLinkRTT(t *testing.T) {
	regs := Regions()
	usw, _ := RegionByName(regs, "us-west")
	euw, _ := RegionByName(regs, "eu-west")
	// Same point: only the hop overhead.
	if rtt := LinkRTT(usw.Bounds.Center(), usw.Bounds.Center()); rtt != linkHopOverhead {
		t.Errorf("co-located RTT = %v, want %v", rtt, linkHopOverhead)
	}
	// Transatlantic: tens of milliseconds, under a second.
	rtt := LinkRTT(usw.Bounds.Center(), euw.Bounds.Center())
	if rtt < 50*time.Millisecond || rtt > 200*time.Millisecond {
		t.Errorf("us-west↔eu-west RTT = %v, want 50-200 ms", rtt)
	}
	// Monotone in distance: the farther pair has the larger RTT.
	use, _ := RegionByName(regs, "us-east")
	if near := LinkRTT(euw.Bounds.Center(), use.Bounds.Center()); near >= rtt {
		t.Errorf("eu-west↔us-east RTT %v not below eu-west↔us-west %v", near, rtt)
	}
}

func TestRegionByName(t *testing.T) {
	regs := Regions()
	if r, ok := RegionByName(regs, "eu-west"); !ok || r.Name != "eu-west" {
		t.Errorf("RegionByName(eu-west) = %+v, %v", r, ok)
	}
	if _, ok := RegionByName(regs, "atlantis"); ok {
		t.Error("unknown region reported found")
	}
}
