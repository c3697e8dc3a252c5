//go:build race

package core

// A -race CPU profile of the probe overhead guards spends 84% of its
// samples in the race runtime, which instruments the whole submit+run
// path, so the guards' absolute per-submit ceiling holds only in !race
// builds.
func init() { raceBuild = true }
