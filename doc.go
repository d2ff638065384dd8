// Package repro is a from-scratch Go reproduction of "Scalable Hierarchical
// Multipole Methods using an Asynchronous Many-Tasking Runtime System"
// (DeBuhr, Zhang, D'Alessandro; IPDPSW 2017): the DASHMM framework — generic
// FMM/Barnes–Hut evaluation driven by a dataflow DAG of LCOs — on an
// HPX-5-style AMT runtime substrate, together with the discrete-event
// machinery that regenerates every table and figure of the paper's
// evaluation.
//
// The library lives under internal/: see internal/core for the DASHMM-style
// user API, internal/amt for the runtime, internal/kernel for the Laplace
// and Yukawa operators, and DESIGN.md for the full system inventory. The
// commands cmd/dagstat, cmd/scaling and cmd/dashmm-bench print the paper's
// tables and figures in the paper's layout (DESIGN.md, "Per-experiment
// index"); bench/, a module of its own, is the one place timings are
// measured (BENCHMARK.json).
package repro
