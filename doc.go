// Package parc751 reproduces "EA: Research-infused teaching of parallel
// programming concepts for undergraduate Software Engineering students"
// (Giacaman & Sinnen, IPDPSW 2014) as a Go library suite: the Parallel
// Task task-parallelism model (internal/ptask), the Pyjama OpenMP-like
// directive model (internal/pyjama), the ten SoftEng 751 student projects
// built on them, the PARC-machine simulator that reproduces the paper's
// hardware, and the course machinery behind its figures and evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record. The experiment
// registry regenerates every exhibit and ablation and checks its findings;
// the Go benchmarks time the perfbench hot-path suite that `parcbench
// -perf` ratchets:
//
//	go run ./cmd/parcbench -e all
//	go test -run NONE -bench . .
package parc751
