package blas

// ColSums writes the sum of each column of the m×n column-major block a
// (column stride lda) into sums[0:n]. It is the vectorised helper behind
// checksum totals that only feed a comparison: each column is summed with
// sixteen independent accumulators (four 4-lane vectors under AVX2)
// combined in a fixed tree, so a sum depends only on its column's values
// and is the same at any SetMaxProcs, but it is not the left-to-right sum
// Dsum returns. The portable loop spells out the AVX2 kernel's order, so
// both give the same bits.
func ColSums(m, n int, a []float64, lda int, sums []float64) {
	checkMatrix("ColSums", m, n, lda, a)
	sums = sums[:n]
	for j := range sums {
		col := a[j*lda : j*lda+m]
		if useAVXKernel {
			sums[j] = sumAVX(col)
		} else {
			sums[j] = sumGo(col)
		}
	}
}

// sumGo is sumAVX's order in Go: accumulator l takes the elements i ≡ l
// (mod 16) of the whole 16-element blocks, accumulators 0..3 then take the
// remaining whole 4-element groups, the lanes reduce as
// ((a[l]+a[4+l]) + (a[8+l]+a[12+l])) and then (w0+w2) + (w1+w3), and the
// last len(x) mod 4 elements are added in order.
func sumGo(x []float64) float64 {
	var acc [16]float64
	i := 0
	for ; i+16 <= len(x); i += 16 {
		for l, v := range x[i : i+16] {
			acc[l] += v
		}
	}
	for ; i+4 <= len(x); i += 4 {
		for l, v := range x[i : i+4] {
			acc[l] += v
		}
	}
	var w [4]float64
	for l := range w {
		w[l] = (acc[l] + acc[4+l]) + (acc[8+l] + acc[12+l])
	}
	s := (w[0] + w[2]) + (w[1] + w[3])
	for _, v := range x[i:] {
		s += v
	}
	return s
}
