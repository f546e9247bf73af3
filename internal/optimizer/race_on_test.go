//go:build race

package optimizer

// raceEnabled reports that this binary was built with the race
// detector, under which sync.Pool drops a share of what is put into it
// and allocation counts stop being repeatable.
const raceEnabled = true
