// Package geo models the geographic side of the Periscope service: the
// world map the mobile app lets users explore, the rectangular query areas
// the crawler sends to /mapGeoBroadcastFeed, recursive quadtree subdivision
// for deep crawls, and longitude-based local-time estimation used to place
// broadcast start times in the broadcaster's time zone (Fig. 2(b)).
package geo

import (
	"fmt"
	"math"
	"time"
)

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64 // [-90, 90]
	Lon float64 // [-180, 180)
}

// Rect is a latitude/longitude aligned rectangle. Rectangles never wrap the
// antimeridian; the world is covered by rectangles in [-180, 180).
type Rect struct {
	South, West float64 // lower-left corner
	North, East float64 // upper-right corner
}

// World returns the rectangle covering the whole map.
func World() Rect { return Rect{South: -90, West: -180, North: 90, East: 180} }

// Contains reports whether p lies inside r (south/west inclusive,
// north/east exclusive, so a tiling of rectangles covers every point once).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.South && p.Lat < r.North && p.Lon >= r.West && p.Lon < r.East
}

// Valid reports whether the rectangle is well-formed and non-empty.
func (r Rect) Valid() bool {
	return r.South < r.North && r.West < r.East &&
		r.South >= -90 && r.North <= 90 && r.West >= -180 && r.East <= 180
}

// Area returns a simple solid-angle-free area proxy in square degrees.
func (r Rect) Area() float64 { return (r.North - r.South) * (r.East - r.West) }

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{Lat: (r.South + r.North) / 2, Lon: (r.West + r.East) / 2}
}

// Quadrants splits r into its four quadrants (SW, SE, NW, NE). This is the
// "zoom in" operation the deep crawler applies recursively.
func (r Rect) Quadrants() [4]Rect {
	c := r.Center()
	return [4]Rect{
		{South: r.South, West: r.West, North: c.Lat, East: c.Lon}, // SW
		{South: r.South, West: c.Lon, North: c.Lat, East: r.East}, // SE
		{South: c.Lat, West: r.West, North: r.North, East: c.Lon}, // NW
		{South: c.Lat, West: c.Lon, North: r.North, East: r.East}, // NE
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f..%.2f,%.2f]", r.South, r.West, r.North, r.East)
}

// earthRadiusKm is the mean Earth radius used by DistanceKm.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometres.
func DistanceKm(a, b Point) float64 {
	const rad = math.Pi / 180
	lat1, lat2 := a.Lat*rad, b.Lat*rad
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// fiberKmPerSec is the signal propagation speed in optical fiber (~2/3 c),
// the standard first-order model for inter-datacenter latency.
const fiberKmPerSec = 200_000.0

// linkHopOverhead is the fixed per-path cost (routing, serialization,
// handshakes amortized over keep-alive) added on top of propagation delay.
// It is also the floor for co-located endpoints: two POPs in the same
// region are near, not free.
const linkHopOverhead = 2 * time.Millisecond

// LinkRTT estimates the round-trip time of a wide-area path between two
// points: great-circle propagation at fiber speed, doubled, plus a fixed
// hop overhead. §5.1 of the paper attributes much of the HLS latency
// spread to exactly this quantity — the RTT between viewer, edge, and
// origin.
func LinkRTT(a, b Point) time.Duration {
	oneWay := DistanceKm(a, b) / fiberKmPerSec
	return time.Duration(2*oneWay*float64(time.Second)) + linkHopOverhead
}

// LocalHourOffset estimates the broadcaster's UTC offset in hours from the
// longitude (15 degrees per hour, rounded to the nearest hour). The paper
// determines the local time of day from the broadcaster's time zone; this
// longitude rule is the standard approximation when only coordinates are
// available.
func LocalHourOffset(lon float64) int {
	return int(math.Round(lon / 15.0))
}

// LocalHour converts a UTC hour-of-day (fractional) at the given longitude
// into the local hour-of-day in [0, 24).
func LocalHour(utcHour, lon float64) float64 {
	h := math.Mod(utcHour+float64(LocalHourOffset(lon)), 24)
	if h < 0 {
		h += 24
	}
	return h
}

// Region is a named populated area of the world. The service simulator
// places broadcasters in regions, and regional RTMP ingest servers are
// selected by proximity ("at least one in each continent, except Africa").
type Region struct {
	Name   string
	Bounds Rect
	// Weight is the fraction of global broadcast activity originating in
	// this region.
	Weight float64
	// UTCOffset is the representative local-time offset for the region.
	UTCOffset int
}

// Regions returns the built-in world regions, loosely following where
// Periscope usage concentrated (US, Europe, Turkey/Middle East, Asia,
// South America, Oceania). Weights sum to 1.
func Regions() []Region {
	return []Region{
		{Name: "us-west", Bounds: Rect{South: 30, West: -125, North: 49, East: -100}, Weight: 0.14, UTCOffset: -8},
		{Name: "us-east", Bounds: Rect{South: 25, West: -100, North: 49, East: -66}, Weight: 0.18, UTCOffset: -5},
		{Name: "south-america", Bounds: Rect{South: -35, West: -80, North: 10, East: -35}, Weight: 0.11, UTCOffset: -3},
		{Name: "eu-west", Bounds: Rect{South: 36, West: -10, North: 59, East: 15}, Weight: 0.16, UTCOffset: 1},
		{Name: "eu-east", Bounds: Rect{South: 36, West: 15, North: 59, East: 40}, Weight: 0.12, UTCOffset: 2},
		{Name: "middle-east", Bounds: Rect{South: 12, West: 26, North: 42, East: 60}, Weight: 0.13, UTCOffset: 3},
		{Name: "asia-east", Bounds: Rect{South: 0, West: 95, North: 45, East: 145}, Weight: 0.12, UTCOffset: 8},
		{Name: "oceania", Bounds: Rect{South: -45, West: 110, North: -10, East: 155}, Weight: 0.04, UTCOffset: 10},
	}
}

// RegionByName looks a region up by name.
func RegionByName(regions []Region, name string) (Region, bool) {
	for _, r := range regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}
