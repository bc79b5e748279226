module github.com/fastpathnfv/speedybox/benchmark

go 1.22

require github.com/fastpathnfv/speedybox v0.0.0

// The benchmark is a module of its own that builds the repository it
// sits in from source; its import path stays under the parent module's,
// so the parent's internal/ packages remain importable.
replace github.com/fastpathnfv/speedybox => ../
