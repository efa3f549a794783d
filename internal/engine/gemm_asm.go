package engine

import "sync"

// Packed driver for the hand-written SIMD microkernels (KernelAsm, and
// the KernelGEMM choice past the measured crossover when the CPU
// supports them — see gemm_asm_{amd64,arm64}.go for the tiles and
// gemm_asm_off.go for the disabled build).
//
// The block structure mirrors sgemmMicro: NC-wide column blocks, KC
// panels, MC row blocks, with both operands repacked into k-major
// strips the tile streams with unit stride:
//
//	packAAsm: rows in strips of asmMR — a[i0+r][kk] at
//	          strip[kk*asmMR + r], zero-padded to full height.
//	bPacker:  columns in strips of asmNR — b[kk][j0+c] at
//	          strip[kk*asmNR + c], zero-padded to full width.
//
// Two things are new versus the pure-Go microkernel. First, B packing
// is *source-pluggable*: a bPacker either reads a plain row-major
// matrix or synthesizes patch-matrix windows straight from a conv
// input tensor (fused im2col — the kSize x hw column buffer that
// conv2dGEMM materializes for the other drivers never exists on this
// path, and the batched variant spans image boundaries the same way).
// Second, the tile uses FMA: one rounding per multiply-add instead of
// two. Accumulation still visits k in ascending order with a single
// accumulator per C element, but float32 results differ from the
// pure-Go kernels in rounding. Parity tests bound the difference
// (see asm_parity_test.go); the relative error of a length-k dot
// product differs by at most k ulps between the fused and unfused
// evaluations, in practice ~1e-7 relative for the shapes here.
//
// Edge tiles: rather than a scalar tail loop (which would mix FMA and
// non-FMA arithmetic inside one matrix), partial tiles run the full
// asm tile against a stack scratch patch. Valid C elements are copied
// in, accumulated by the tile (zero-padded A rows / B columns
// contribute exact zeros to live lanes, and SIMD lanes are
// independent), and copied back; dead lanes accumulate garbage that is
// never read. Every output element therefore takes the same FMA
// instruction sequence regardless of its tile position — which also
// keeps batched and single-image conv outputs bit-identical to each
// other under asm, since batching only relocates an element's column.

// asmPackBufs recycles the packed blocks: one A and one B block per
// in-flight worker.
var (
	asmPackBufsA = freeList[[]float32]{
		New: func() []float32 { return make([]float32, asmMC*asmKC) },
	}
	asmPackBufsB = freeList[[]float32]{
		New: func() []float32 { return make([]float32, asmKC*asmNC) },
	}
)

// asmEnabled reports whether the float32 assembly path can engage in
// this process (build tags, architecture, CPUID probe and the
// DNNJPS_NOASM override all folded in). Tests key their parity mode
// off this: bit-exact when false, tolerance-bounded when true.
func asmEnabled() bool { return asmSgemmOK }

// preferAsm reports whether KernelGEMM should route an m×k by k×n
// multiply to the assembly tile. The structural guard keeps shapes the
// tile cannot fill — or too shallow to amortize packing — on the
// pure-Go drivers; past it, the measured per-arch crossover on the
// streamed B working set decides (see asmCrossoverBytes).
func preferAsm(m, k, n int) bool {
	if !asmSgemmOK {
		return false
	}
	if m < asmMR || n < asmNR || k < 8 {
		return false
	}
	if asmCrossoverBytes < 0 {
		return false
	}
	return k*n*4 >= asmCrossoverBytes
}

// bPacker produces packed B strips for the asm driver. Plain mode
// (conv == false) reads a row-major matrix; conv mode synthesizes
// im2col windows directly from the input tensor, never materializing
// the patch matrix. It is passed by value so the parallel column split
// can hand each worker a copy without heap traffic on the serial path.
type bPacker struct {
	// Plain mode: row-major matrix b with row stride ldb.
	b   []float32
	ldb int

	// Conv mode (fused im2col).
	conv                  bool
	src                   []float32 // input tensor, packed batch-n layout
	inH, inW              int
	kh, kw                int
	stride, padH, padW    int
	outW                  int
	cLo                   int // first input channel of the group
	n                     int // packed batch width (1 = single image)
	hw                    int // patch columns per image = outH*outW
}

// pack fills dst with the asmNR-column strips covering columns
// [jp, jp+nc) of rows [kp, kp+kc) of the (virtual) B matrix, padding
// the last strip with zeros to full width.
func (p bPacker) pack(kp, kc, jp, nc int, dst []float32) {
	if !p.conv {
		p.packPlain(kp, kc, jp, nc, dst)
		return
	}
	// Row kp+kk of the patch matrix is kernel offset (r, s) of input
	// channel ci; walk the decomposition incrementally.
	khw := p.kh * p.kw
	ci := kp / khw
	rs := kp % khw
	for kk := 0; kk < kc; kk++ {
		r, s := rs/p.kw, rs%p.kw
		for j0 := 0; j0 < nc; j0 += asmNR {
			w := min(asmNR, nc-j0)
			row := dst[j0*kc+kk*asmNR : j0*kc+kk*asmNR+asmNR]
			p.fillWindow(row[:w], ci, r, s, jp+j0)
			for i := w; i < asmNR; i++ {
				row[i] = 0
			}
		}
		if rs++; rs == khw {
			rs, ci = 0, ci+1
		}
	}
}

// packPlain is the matrix-source strip packer.
func (p bPacker) packPlain(kp, kc, jp, nc int, dst []float32) {
	nFull := nc - nc%asmNR
	for j0 := 0; j0 < nFull; j0 += asmNR {
		d := dst[j0*kc : j0*kc+kc*asmNR]
		si := (kp)*p.ldb + jp + j0
		for kk := 0; kk < kc; kk++ {
			copy(d[kk*asmNR:kk*asmNR+asmNR], p.b[si:si+asmNR])
			si += p.ldb
		}
	}
	if cc := nc - nFull; cc > 0 {
		d := dst[nFull*kc:]
		si := (kp)*p.ldb + jp + nFull
		for kk := 0; kk < kc; kk++ {
			di := kk * asmNR
			copy(d[di:di+cc], p.b[si:si+cc])
			for i := cc; i < asmNR; i++ {
				d[di+i] = 0
			}
			si += p.ldb
		}
	}
}

// fillWindow writes len(dst) consecutive patch-matrix values of row
// (ci, r, s) starting at global column col, splitting the window at
// image boundaries of the packed batch.
func (p bPacker) fillWindow(dst []float32, ci, r, s, col int) {
	di := 0
	for w := len(dst); w > 0; {
		bi, pos := col/p.hw, col%p.hw
		seg := min(w, p.hw-pos)
		chanBase := ((p.cLo+ci)*p.n + bi) * p.inH * p.inW
		im2colWindow(p.src, dst[di:di+seg], chanBase, r, s,
			p.inH, p.inW, p.stride, p.padH, p.padW, p.outW, pos)
		di += seg
		col += seg
		w -= seg
	}
}

// im2colWindow writes len(dst) patch-matrix values of the row with
// kernel offset (r, s) over the input plane at chanBase, for output
// positions [pos, pos+len(dst)) — the windowed form of im2colRow, with
// the same padding-is-zero semantics.
func im2colWindow(src, dst []float32, chanBase, r, s, inH, inW, stride, padH, padW, outW, pos int) {
	oh := pos / outW
	ow := pos % outW
	di := 0
	for w := len(dst); w > 0; {
		cnt := min(w, outW-ow)
		ih := oh*stride - padH + r
		if ih < 0 || ih >= inH {
			for i := 0; i < cnt; i++ {
				dst[di+i] = 0
			}
		} else if base := chanBase + ih*inW; stride == 1 {
			// Valid ow span is contiguous: zero the edges, copy the
			// middle. Clamp the span to the window from both sides —
			// it may lie entirely outside it.
			lo, hi := padW-s, inW+padW-s
			if lo < ow {
				lo = ow
			}
			if lo > ow+cnt {
				lo = ow + cnt
			}
			if hi > ow+cnt {
				hi = ow + cnt
			}
			if hi < lo {
				hi = lo
			}
			for i := ow; i < lo; i++ {
				dst[di+i-ow] = 0
			}
			if hi > lo {
				copy(dst[di+lo-ow:di+hi-ow], src[base+lo-padW+s:])
			}
			for i := hi; i < ow+cnt; i++ {
				dst[di+i-ow] = 0
			}
		} else {
			iw := ow*stride - padW + s
			for i := 0; i < cnt; i++ {
				if iw >= 0 && iw < inW {
					dst[di+i] = src[base+iw]
				} else {
					dst[di+i] = 0
				}
				iw += stride
			}
		}
		di += cnt
		w -= cnt
		ow = 0
		oh++
	}
}

// packAAsm packs an mc×kc block of A (row stride lda) into asmMR-row
// k-major strips, zero-padding the final strip to full height.
func packAAsm(kc, mc int, a []float32, lda int, dst []float32) {
	for i0 := 0; i0 < mc; i0 += asmMR {
		rows := min(asmMR, mc-i0)
		d := dst[i0*kc : i0*kc+asmMR*kc]
		for r := 0; r < rows; r++ {
			src := a[(i0+r)*lda : (i0+r)*lda+kc]
			di := r
			for kk := 0; kk < kc; kk++ {
				d[di] = src[kk]
				di += asmMR
			}
		}
		for r := rows; r < asmMR; r++ {
			di := r
			for kk := 0; kk < kc; kk++ {
				d[di] = 0
				di += asmMR
			}
		}
	}
}

// sgemmAsm computes C += A·B with the assembly microkernel, splitting
// the columns of C across workers (each output element is written by
// exactly one worker, and its FMA accumulation order is independent of
// the split). pk supplies B — a plain matrix or a fused conv source.
// ldc is the row stride of C.
func sgemmAsm(m, k, n, ldc int, a []float32, pk bPacker, c []float32, workers int) {
	if w := n / (2 * asmNR); workers > w {
		workers = w
	}
	if workers > 1 {
		sgemmAsmParallel(m, k, n, ldc, a, pk, c, workers)
		return
	}
	sgemmAsmCols(m, k, n, 0, n, ldc, a, pk, c)
}

// sgemmAsmParallel is the goroutine fan-out, kept out of sgemmAsm so
// the closure's by-reference capture of pk (the struct is past the
// compiler's by-value capture size) only heap-moves it on calls that
// actually spawn — the serial path stays allocation-free.
func sgemmAsmParallel(m, k, n, ldc int, a []float32, pk bPacker, c []float32, workers int) {
	cols := (n + workers - 1) / workers
	cols = (cols + asmNR - 1) / asmNR * asmNR
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += cols {
		hi := min(lo+cols, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sgemmAsmCols(m, k, n, lo, hi, ldc, a, pk, c)
		}(lo, hi)
	}
	wg.Wait()
}

// sgemmAsmCols runs the blocked driver over columns [nLo, nHi).
func sgemmAsmCols(m, k, n, nLo, nHi, ldc int, a []float32, pk bPacker, c []float32) {
	pA, pB := asmPackBufsA.get(), asmPackBufsB.get()
	var tmp [asmMR * asmNR]float32
	for jp := nLo; jp < nHi; jp += asmNC {
		nc := min(asmNC, nHi-jp)
		ncPad := (nc + asmNR - 1) / asmNR * asmNR
		for kp := 0; kp < k; kp += asmKC {
			kc := min(asmKC, k-kp)
			pk.pack(kp, kc, jp, nc, pB)
			for ip := 0; ip < m; ip += asmMC {
				mc := min(asmMC, m-ip)
				packAAsm(kc, mc, a[ip*k+kp:], k, pA)
				for i0 := 0; i0 < mc; i0 += asmMR {
					pas := pA[i0*kc:]
					rr := min(asmMR, mc-i0)
					cBase := (ip+i0)*ldc + jp
					for j0 := 0; j0 < ncPad; j0 += asmNR {
						cc := min(asmNR, nc-j0)
						if rr == asmMR && cc == asmNR {
							asmSgemmTile(kc, pas, pB[j0*kc:], c, cBase+j0, ldc)
							continue
						}
						// Edge tile through the scratch patch.
						for r := 0; r < rr; r++ {
							copy(tmp[r*asmNR:r*asmNR+cc], c[cBase+j0+r*ldc:])
						}
						asmSgemmTile(kc, pas, pB[j0*kc:], tmp[:], 0, asmNR)
						for r := 0; r < rr; r++ {
							copy(c[cBase+j0+r*ldc:cBase+j0+r*ldc+cc], tmp[r*asmNR:r*asmNR+cc])
						}
					}
				}
			}
		}
	}
	asmPackBufsA.put(pA)
	asmPackBufsB.put(pB)
}
