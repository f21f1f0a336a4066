//go:build !amd64

package blas

// Portable stand-ins for the amd64 column axpy kernels. useAVXKernel is
// always false here, so these only keep the dispatch sites compiling.

func axpyAVX(t float64, x, y []float64) { axpyGo(t, x, y) }

func axpySubAVX(t float64, x, y []float64) { axpySubGo(t, x, y) }
