package world

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// castRayReference is CastRay without the grid: the ground plane plus
// every building, keeping the nearest hit.
func castRayReference(c *City, origin, dir geom.Vec3, maxRange float64) (float64, bool) {
	best, hit := maxRange, false
	if dir.Z < -1e-9 {
		if t := -origin.Z / dir.Z; t > 0 && t < best {
			best, hit = t, true
		}
	}
	for _, b := range c.Buildings {
		if t, ok := b.Box.RayHit(origin, dir, best); ok && t < best {
			best, hit = t, true
		}
	}
	return best, hit
}

// referenceCities returns the scripted default city plus a few
// generated ones.
func referenceCities(t *testing.T) map[string]*City {
	t.Helper()
	cities := map[string]*City{"default": NewCity(DefaultCityConfig())}
	for _, seed := range []uint64{3, 11, 29} {
		cfg, err := Generate(DefaultSpace(), seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := BuildCity(cfg.City)
		if err != nil {
			t.Fatal(err)
		}
		cities[fmt.Sprintf("gen-%d", seed)] = c
	}
	return cities
}

func TestCastRayMatchesBruteForce(t *testing.T) {
	for name, c := range referenceCities(t) {
		rng := mathx.NewRNG(0xCA57)
		size := c.Size()
		cell := c.indexCell
		for i := 0; i < 20000; i++ {
			// Origins inside the city, well outside it (including
			// negative coordinates) and exactly on index-cell edges.
			var ox, oy float64
			switch i % 4 {
			case 0, 1:
				ox, oy = rng.Range(0, size), rng.Range(0, size)
			case 2:
				ox, oy = rng.Range(-0.5*size, 1.5*size), rng.Range(-0.5*size, 1.5*size)
			case 3:
				ox = float64(rng.Intn(2*c.Blocks+5)-2) * cell
				oy = float64(rng.Intn(2*c.Blocks+5)-2) * cell
			}
			origin := geom.V3(ox, oy, rng.Range(0, 8))
			az := rng.Range(-math.Pi, math.Pi)
			el := rng.Range(-0.5, 0.3)
			if i%10 == 0 {
				el = 0 // horizontal rays never meet the ground
			}
			dir := geom.V3(math.Cos(el)*math.Cos(az), math.Cos(el)*math.Sin(az), math.Sin(el))
			maxRange := rng.Range(5, 150)
			gd, gh := c.CastRay(origin, dir, maxRange)
			wd, wh := castRayReference(c, origin, dir, maxRange)
			if math.Float64bits(gd) != math.Float64bits(wd) || gh != wh {
				t.Fatalf("%s ray %d from %v dir %v: CastRay = (%v, %v), brute force = (%v, %v)",
					name, i, origin, dir, gd, gh, wd, wh)
			}
		}
	}
}

func TestCastRayZeroAlloc(t *testing.T) {
	c := NewCity(DefaultCityConfig())
	origin := geom.V3(c.StreetCenter(2)+3, c.StreetCenter(3), 1.9)
	dir := geom.V3(0.8, 0.6, -0.02)
	if allocs := testing.AllocsPerRun(100, func() { c.CastRay(origin, dir, 120) }); allocs != 0 {
		t.Errorf("CastRay allocates %v times per ray, want 0", allocs)
	}
}

// castSink keeps benchmarked ray casts from being optimized away.
var castSink float64

func BenchmarkCastRay(b *testing.B) {
	c := NewCity(DefaultCityConfig())
	origin := geom.V3(c.StreetCenter(2)+3, c.StreetCenter(3), 1.9)
	const rays = 1024
	dirs := make([]geom.Vec3, rays)
	for i := range dirs {
		az := 2 * math.Pi * float64(i) / rays
		dirs[i] = geom.V3(math.Cos(az), math.Sin(az), -0.02)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		castSink, _ = c.CastRay(origin, dirs[i%rays], 120)
	}
}
