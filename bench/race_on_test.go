//go:build race

package main

// raceEnabled reports that this binary was built with the race
// detector, under which the quick pass takes several times as long.
const raceEnabled = true
