//go:build !race

package experiments

// raceEnabled reports that the test binary is built with the race
// detector, under which the long Fig. 8 co-simulations are skipped.
const raceEnabled = false
