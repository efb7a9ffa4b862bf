package main

// Salts separate the integral seeds the workloads derive from one
// benchmark seed.
const (
	saltExecute = iota + 1
	saltServeUnfused
	saltServeAuto
	saltServeCost
)

// specSeed derives a non-zero chem.Spec seed from the benchmark seed
// (the job server reads seed 0 as its default).
func specSeed(seed uint64, salt uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + salt
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
