package engine

import "sync"

// Packed register-blocked SGEMM — the KernelMicro driver, and the
// KernelGEMM choice on cache-constrained targets at shapes past the
// measured crossover (see preferMicro in autokernel.go).
//
// The driver follows the classic three-level blocking scheme: columns
// of B are processed in NC-wide blocks, K in KC-deep panels, and rows
// of A in MC-high blocks. Within each block both operands are repacked
// so the microkernel streams them with unit stride:
//
//	packA: rows in strips of microMR — strip i0 stores a[i0+r][kk]
//	       at panel[kk*microMR + r], so one k-step of the microkernel
//	       reads microMR contiguous floats.
//	packB: columns in strips of microNR — strip j0 stores b[kk][j0+c]
//	       at panel[kk*microNR + c].
//
// The microkernel keeps a microMR×microNR tile of C in registers and
// walks one KC panel in ascending k. Each C element is loaded once per
// panel, updated by a single running accumulator, and stored once —
// the adds applied to any output element are exactly `bias, then
// a[i][k]*b[k][j] for k ascending`, the same sequence as sgemmPanel
// and the direct kernels, so all paths are bit-identical (an IEEE
// float32 survives a store/load round trip unchanged, and Go never
// reassociates floating-point expressions).
//
// Tile sizes live in gemm_tile_*.go, gated per GOARCH: the unrolled
// tile bodies are written so each accumulator is an independent
// dependency chain the compiler keeps in a register.

const (
	// microKC is the K-panel depth: one packed B strip (microKC ×
	// microNR floats) stays L1-resident while every A strip of the row
	// block streams against it.
	microKC = 512
	// microNC is the N-block width: one packed B block (microKC ×
	// microNC × 4 bytes = 512 KiB) stays L2-resident across the row
	// blocks of A.
	microNC = 256
	// microMC is the M-block height: one packed A block (microMC ×
	// microKC × 4 bytes = 384 KiB) shares L2 with the B block.
	microMC = 192
)

// packBufs recycles the pack panels: one A block and one B block per
// in-flight worker.
var (
	packBufsA = freeList[[]float32]{
		New: func() []float32 { return make([]float32, microMC*microKC) },
	}
	packBufsB = freeList[[]float32]{
		New: func() []float32 { return make([]float32, microKC*microNC) },
	}
)

// sgemmMicro computes C += A·B with the packed microkernel, splitting
// the columns of C across workers. Each output element is written by
// exactly one worker and accumulated in the same k order regardless of
// the split, so results are independent of the worker count. ldc is the
// row stride of C, which may exceed n when C is a view into a wider
// matrix (the batched conv path writes per-image-group column slabs).
func sgemmMicro(m, k, n, ldc int, a, b, c []float32, workers int) {
	if workers > n/(2*microNR) {
		workers = n / (2 * microNR)
	}
	if workers > 1 {
		// Give each worker a contiguous run of whole microNR strips.
		cols := (n + workers - 1) / workers
		cols = (cols + microNR - 1) / microNR * microNR
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += cols {
			hi := lo + cols
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				sgemmMicroCols(m, k, n, lo, hi, ldc, a, b, c)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	sgemmMicroCols(m, k, n, 0, n, ldc, a, b, c)
}

// sgemmMicroCols runs the blocked driver over columns [nLo, nHi).
func sgemmMicroCols(m, k, n, nLo, nHi, ldc int, a, b, c []float32) {
	pA, pB := packBufsA.get(), packBufsB.get()
	for jp := nLo; jp < nHi; jp += microNC {
		nc := min(microNC, nHi-jp)
		for kp := 0; kp < k; kp += microKC {
			kc := min(microKC, k-kp)
			packBBlock(kc, nc, b[kp*n+jp:], n, pB)
			for ip := 0; ip < m; ip += microMC {
				mc := min(microMC, m-ip)
				packABlock(kc, mc, a[ip*k+kp:], k, pA)
				// A strip outer, B strips inner: the microMR-row A strip
				// (microKC·microMR floats) stays L1-resident while the B
				// strips of the block stream past it sequentially.
				nFull := nc - nc%microNR
				for i0 := 0; i0 < mc; i0 += microMR {
					pas := pA[i0*kc:]
					cBase := (ip+i0)*ldc + jp
					rr := min(microMR, mc-i0)
					if rr == microMR {
						for j0 := 0; j0 < nFull; j0 += microNR {
							microTileFull(kc, pas, pB[j0*kc:], c, cBase+j0, ldc)
						}
					} else {
						for j0 := 0; j0 < nFull; j0 += microNR {
							microTileTail(kc, rr, microNR, pas, pB[j0*kc:], c, cBase+j0, ldc)
						}
					}
					if cc := nc - nFull; cc > 0 {
						microTileTail(kc, rr, cc, pas, pB[nFull*kc:], c, cBase+nFull, ldc)
					}
				}
			}
		}
	}
	packBufsA.put(pA)
	packBufsB.put(pB)
}

// packABlock packs an mc×kc block of A (row stride lda) into microMR-row
// strips: strip i0 occupies dst[i0*kc:(i0+rows)*kc] with element
// (i0+r, kk) at strip[kk*rows + r]. A trailing partial strip packs with
// its actual row count as the stride.
func packABlock(kc, mc int, a []float32, lda int, dst []float32) {
	for i0 := 0; i0 < mc; i0 += microMR {
		rows := min(microMR, mc-i0)
		d := dst[i0*kc : i0*kc+rows*kc]
		for r := 0; r < rows; r++ {
			src := a[(i0+r)*lda : (i0+r)*lda+kc]
			di := r
			for kk := 0; kk < kc; kk++ {
				d[di] = src[kk]
				di += rows
			}
		}
	}
}

// packBBlock packs a kc×nc block of B (row stride ldb) into microNR-col
// strips: strip j0 occupies dst[j0*kc:(j0+cols)*kc] with element
// (kk, j0+c) at strip[kk*cols + c]. A trailing partial strip packs with
// its actual column count as the stride.
func packBBlock(kc, nc int, b []float32, ldb int, dst []float32) {
	nFull := nc - nc%microNR
	for j0 := 0; j0 < nFull; j0 += microNR {
		// One full strip per pass (unrolled per arch in packBStrip):
		// the writes are sequential and the strided column reads hit
		// lines already pulled in by earlier strips of the same rows.
		packBStrip(kc, b[j0:], ldb, dst[j0*kc:j0*kc+kc*microNR])
	}
	if cols := nc - nFull; cols > 0 {
		d := dst[nFull*kc:]
		for kk := 0; kk < kc; kk++ {
			s := b[kk*ldb+nFull : kk*ldb+nc]
			di := kk * cols
			for cc, v := range s {
				d[di+cc] = v
			}
		}
	}
}

// microTileTail handles partial tiles (rr ≤ microMR rows, cc ≤ microNR
// columns) with the same per-element accumulation order as the full
// tile: one running accumulator per C element, k ascending. pa is a
// packed strip of stride rr, pb a packed strip of stride cc.
func microTileTail(kc, rr, cc int, pa, pb []float32, c []float32, off, ldc int) {
	for r := 0; r < rr; r++ {
		for j := 0; j < cc; j++ {
			acc := c[off+r*ldc+j]
			ia, ib := r, j
			for kk := 0; kk < kc; kk++ {
				acc += pa[ia] * pb[ib]
				ia += rr
				ib += cc
			}
			c[off+r*ldc+j] = acc
		}
	}
}
