// Package testenv caches the default drive's environment — the world
// and HD map autoware.BuildEnv builds for autoware.DefaultConfig — so
// each stack-level test package builds it once per test binary. The
// packages autoware itself is built from cannot import it; their tests
// build their own fixtures.
package testenv

import (
	"sync"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/world"
)

var (
	once sync.Once
	scen *world.Scenario
	hmap *hdmap.Map
)

// Scenario returns the shared default scenario.
func Scenario() *world.Scenario {
	build()
	return scen
}

// Map returns the shared HD map.
func Map() *hdmap.Map {
	build()
	return hmap
}

func build() {
	once.Do(func() {
		var err error
		scen, hmap, err = autoware.BuildEnv(autoware.DefaultConfig(autoware.DetectorSSD300))
		if err != nil {
			panic(err)
		}
	})
}
