/* Generated by the MCFuser reproduction compiled backend.
 * chain: golden-attn
 * schedule: mn(k,h)[Tm=32,Tn=32,Tk=32,Th=32]
 */
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* The contraction microkernel's accumulator vector (GCC/Clang vector
 * extension), loaded and stored with memcpy: tiles need no alignment. */
typedef float mcf_v __attribute__((vector_size(64)));

static inline float mcf_relu(float x) { return x > 0.0f ? x : 0.0f; }
static inline float mcf_gelu(float x) {
    return 0.5f * x * (1.0f + tanhf(0.7978845608f * (x + 0.044715f * x * x * x)));
}
/* glibc ships vectorized expf in libmvec but only declares it simd
 * under fast-math, which would break the online-softmax -inf/isfinite
 * masking. Declaring it ourselves lets the probability loop call
 * _ZGV*_expf without fast-math; elsewhere expf stays scalar libm.
 * The same holds for tanhf in the GELU epilogue loop, whose libmvec
 * variant first shipped in glibc 2.35. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(_OPENMP)
#pragma omp declare simd notinbranch
extern float expf(float);
#if __GLIBC_PREREQ(2, 35)
#pragma omp declare simd notinbranch
extern float tanhf(float);
#endif
#endif

int mcfuser_kernel(const float* restrict g0, const float* restrict g1, const float* restrict g3, float* restrict g4) {
    int fail = 0;
    #pragma omp parallel for collapse(2) schedule(static) reduction(|:fail)
    for (long b = 0; b < 2; b++)
    for (long g_1 = 0; g_1 < 2; g_1++)
    {
        float* arena = (float*)malloc(7264 * sizeof(float));
        if (!arena) { fail = 1; continue; }
        float* restrict sm0 = arena + 0;
        float* restrict sm1 = arena + 1024;
        float* restrict sm3 = arena + 2048;
        float* restrict acc0 = arena + 3072;
        float* restrict tr0_sm1 = arena + 4096;
        float* restrict acc1 = arena + 5120;
        float* restrict rmax1 = arena + 6144;
        float* restrict rden1 = arena + 6176;
        float* restrict rcor1 = arena + 6208;
        float* restrict prob1 = arena + 6240;
        int alive0 = 0;
        long key0_0 = -1; (void)key0_0;
        long key0_1 = -1; (void)key0_1;
        int alive1 = 0;
        long key1_0 = -1; (void)key1_0;
        long key1_1 = -1; (void)key1_1;
        { /* Load tile Q */
            long s0 = (long)(g_1) * 32;
            long v0 = 64 - s0 < 32 ? 64 - s0 : 32;
            long s1 = (long)(0) * 32;
            long v1 = 32 - s1 < 32 ? 32 - s1 : 32;
            if (v0 < 32 || v1 < 32) memset(sm0, 0, 1024 * sizeof(float));
            if (v0 > 0 && v1 > 0) {
                for (long i0 = 0; i0 < v0; i0++)
                    memcpy(sm0 + (i0 * 32 + 0), g0 + (b * 2048 + (s0 + i0) * 32 + s1), v1 * sizeof(float));
            }
        }
        for (long L0 = 0; L0 < 2; L0++) { /* n */
            { /* Load tile K */
                long s0 = (long)(L0) * 32;
                long v0 = 64 - s0 < 32 ? 64 - s0 : 32;
                long s1 = (long)(0) * 32;
                long v1 = 32 - s1 < 32 ? 32 - s1 : 32;
                if (v0 < 32 || v1 < 32) memset(sm1, 0, 1024 * sizeof(float));
                if (v0 > 0 && v1 > 0) {
                    for (long i0 = 0; i0 < v0; i0++)
                        memcpy(sm1 + (i0 * 32 + 0), g1 + (b * 2048 + (s0 + i0) * 32 + s1), v1 * sizeof(float));
                }
            }
            { /* Compute S */
                if (!alive0 || key0_0 != L0 || (1)) {
                    memset(acc0, 0, 1024 * sizeof(float));
                    alive0 = 1;
                    key0_0 = L0;
                }
                /* unit-stride copy of sm1 for the n loop */
                for (long k0 = 0; k0 < 32; k0 += 16)
                    for (long k1 = 0; k1 < 32; k1 += 16)
                        for (long c0 = k0; c0 < k0 + 16; c0++) {
                            #pragma omp simd
                            for (long c1 = k1; c1 < k1 + 16; c1++)
                                tr0_sm1[c1 * 32 + c0] = sm1[c0 * 32 + c1];
                        }
                for (long t0 = 0; t0 < 32; t0 += 4) {
                    for (long t2 = 0; t2 < 32; t2 += 32) {
                        mcf_v c0_0; memcpy(&c0_0, acc0 + (t0 * 32 + t2), sizeof(mcf_v));
                        mcf_v c0_1; memcpy(&c0_1, acc0 + (t0 * 32 + (t2 + 16)), sizeof(mcf_v));
                        mcf_v c1_0; memcpy(&c1_0, acc0 + ((t0 + 1) * 32 + t2), sizeof(mcf_v));
                        mcf_v c1_1; memcpy(&c1_1, acc0 + ((t0 + 1) * 32 + (t2 + 16)), sizeof(mcf_v));
                        mcf_v c2_0; memcpy(&c2_0, acc0 + ((t0 + 2) * 32 + t2), sizeof(mcf_v));
                        mcf_v c2_1; memcpy(&c2_1, acc0 + ((t0 + 2) * 32 + (t2 + 16)), sizeof(mcf_v));
                        mcf_v c3_0; memcpy(&c3_0, acc0 + ((t0 + 3) * 32 + t2), sizeof(mcf_v));
                        mcf_v c3_1; memcpy(&c3_1, acc0 + ((t0 + 3) * 32 + (t2 + 16)), sizeof(mcf_v));
                        for (long t1 = 0; t1 < 32; t1++) {
                            float a0 = 0.17677669529663687f * sm0[t0 * 32 + t1];
                            float a1 = 0.17677669529663687f * sm0[(t0 + 1) * 32 + t1];
                            float a2 = 0.17677669529663687f * sm0[(t0 + 2) * 32 + t1];
                            float a3 = 0.17677669529663687f * sm0[(t0 + 3) * 32 + t1];
                            mcf_v p0; memcpy(&p0, tr0_sm1 + (t1 * 32 + t2), sizeof(mcf_v));
                            mcf_v p1; memcpy(&p1, tr0_sm1 + (t1 * 32 + (t2 + 16)), sizeof(mcf_v));
                            c0_0 += a0 * p0;
                            c0_1 += a0 * p1;
                            c1_0 += a1 * p0;
                            c1_1 += a1 * p1;
                            c2_0 += a2 * p0;
                            c2_1 += a2 * p1;
                            c3_0 += a3 * p0;
                            c3_1 += a3 * p1;
                        }
                        memcpy(acc0 + (t0 * 32 + t2), &c0_0, sizeof(mcf_v));
                        memcpy(acc0 + (t0 * 32 + (t2 + 16)), &c0_1, sizeof(mcf_v));
                        memcpy(acc0 + ((t0 + 1) * 32 + t2), &c1_0, sizeof(mcf_v));
                        memcpy(acc0 + ((t0 + 1) * 32 + (t2 + 16)), &c1_1, sizeof(mcf_v));
                        memcpy(acc0 + ((t0 + 2) * 32 + t2), &c2_0, sizeof(mcf_v));
                        memcpy(acc0 + ((t0 + 2) * 32 + (t2 + 16)), &c2_1, sizeof(mcf_v));
                        memcpy(acc0 + ((t0 + 3) * 32 + t2), &c3_0, sizeof(mcf_v));
                        memcpy(acc0 + ((t0 + 3) * 32 + (t2 + 16)), &c3_1, sizeof(mcf_v));
                    }
                }
            }
            { /* Load tile V */
                long s0 = (long)(L0) * 32;
                long v0 = 64 - s0 < 32 ? 64 - s0 : 32;
                long s1 = (long)(0) * 32;
                long v1 = 32 - s1 < 32 ? 32 - s1 : 32;
                if (v0 < 32 || v1 < 32) memset(sm3, 0, 1024 * sizeof(float));
                if (v0 > 0 && v1 > 0) {
                    for (long i0 = 0; i0 < v0; i0++)
                        memcpy(sm3 + (i0 * 32 + 0), g3 + (b * 2048 + (s0 + i0) * 32 + s1), v1 * sizeof(float));
                }
            }
            { /* Compute O */
                if (!alive1 || (L0 == 0)) {
                    memset(acc1, 0, 1024 * sizeof(float));
                    for (long r = 0; r < 32; r++) { rmax1[r] = -INFINITY; rden1[r] = 0.0f; }
                    alive1 = 1;
                }
                long sn = (long)(L0) * 32;
                long vn = 64 - sn < 32 ? 64 - sn : 32;
                if (vn > 0) {
                    for (long r0 = 0; r0 < 32; r0++) {
                        float tmax = -INFINITY;
                        #pragma omp simd reduction(max:tmax)
                        for (long jn = 0; jn < vn; jn++) { float s = acc0[r0 * 32 + jn]; if (s > tmax) tmax = s; }
                        float oldmax = rmax1[r0];
                        float newmax = oldmax > tmax ? oldmax : tmax;
                        float corr = expf(oldmax - newmax);
                        if (!isfinite(corr)) corr = 0.0f;
                        float psum = 0.0f;
                        #pragma omp simd
                        for (long jn = 0; jn < 32; jn++)
                            prob1[r0 * 32 + jn] = jn < vn ? acc0[r0 * 32 + jn] - newmax : -INFINITY;
                        #pragma omp simd
                        for (long jn = 0; jn < 32; jn++)
                            prob1[r0 * 32 + jn] = expf(prob1[r0 * 32 + jn]);
                        #pragma omp simd reduction(+:psum)
                        for (long jn = 0; jn < 32; jn++)
                            psum += prob1[r0 * 32 + jn];
                        rden1[r0] = rden1[r0] * corr + psum;
                        rmax1[r0] = newmax;
                        rcor1[r0] = corr;
                    }
                    for (long o0 = 0; o0 < 32; o0++) {
                        #pragma omp simd
                        for (long o1 = 0; o1 < 32; o1++) {
                            acc1[o0 * 32 + o1] *= rcor1[o0];
                        }
                    }
                    for (long t0 = 0; t0 < 32; t0 += 4) {
                        for (long t2 = 0; t2 < 32; t2 += 32) {
                            mcf_v c0_0; memcpy(&c0_0, acc1 + (t0 * 32 + t2), sizeof(mcf_v));
                            mcf_v c0_1; memcpy(&c0_1, acc1 + (t0 * 32 + (t2 + 16)), sizeof(mcf_v));
                            mcf_v c1_0; memcpy(&c1_0, acc1 + ((t0 + 1) * 32 + t2), sizeof(mcf_v));
                            mcf_v c1_1; memcpy(&c1_1, acc1 + ((t0 + 1) * 32 + (t2 + 16)), sizeof(mcf_v));
                            mcf_v c2_0; memcpy(&c2_0, acc1 + ((t0 + 2) * 32 + t2), sizeof(mcf_v));
                            mcf_v c2_1; memcpy(&c2_1, acc1 + ((t0 + 2) * 32 + (t2 + 16)), sizeof(mcf_v));
                            mcf_v c3_0; memcpy(&c3_0, acc1 + ((t0 + 3) * 32 + t2), sizeof(mcf_v));
                            mcf_v c3_1; memcpy(&c3_1, acc1 + ((t0 + 3) * 32 + (t2 + 16)), sizeof(mcf_v));
                            for (long t1 = 0; t1 < 32; t1++) {
                                float a0 = prob1[t0 * 32 + t1];
                                float a1 = prob1[(t0 + 1) * 32 + t1];
                                float a2 = prob1[(t0 + 2) * 32 + t1];
                                float a3 = prob1[(t0 + 3) * 32 + t1];
                                mcf_v p0; memcpy(&p0, sm3 + (t1 * 32 + t2), sizeof(mcf_v));
                                mcf_v p1; memcpy(&p1, sm3 + (t1 * 32 + (t2 + 16)), sizeof(mcf_v));
                                c0_0 += a0 * p0;
                                c0_1 += a0 * p1;
                                c1_0 += a1 * p0;
                                c1_1 += a1 * p1;
                                c2_0 += a2 * p0;
                                c2_1 += a2 * p1;
                                c3_0 += a3 * p0;
                                c3_1 += a3 * p1;
                            }
                            memcpy(acc1 + (t0 * 32 + t2), &c0_0, sizeof(mcf_v));
                            memcpy(acc1 + (t0 * 32 + (t2 + 16)), &c0_1, sizeof(mcf_v));
                            memcpy(acc1 + ((t0 + 1) * 32 + t2), &c1_0, sizeof(mcf_v));
                            memcpy(acc1 + ((t0 + 1) * 32 + (t2 + 16)), &c1_1, sizeof(mcf_v));
                            memcpy(acc1 + ((t0 + 2) * 32 + t2), &c2_0, sizeof(mcf_v));
                            memcpy(acc1 + ((t0 + 2) * 32 + (t2 + 16)), &c2_1, sizeof(mcf_v));
                            memcpy(acc1 + ((t0 + 3) * 32 + t2), &c3_0, sizeof(mcf_v));
                            memcpy(acc1 + ((t0 + 3) * 32 + (t2 + 16)), &c3_1, sizeof(mcf_v));
                        }
                    }
                }
            }
        }
        { /* Store tile O */
            long s0 = (long)(g_1) * 32;
            long v0 = 64 - s0 < 32 ? 64 - s0 : 32;
            long s1 = (long)(0) * 32;
            long v1 = 32 - s1 < 32 ? 32 - s1 : 32;
            for (long i0 = 0; i0 < v0; i0++) {
                for (long i1 = 0; i1 < v1; i1++) {
                    float d_ = rden1[i0];
                    g4[b * 2048 + (s0 + i0) * 32 + (s1 + i1)] = acc1[i0 * 32 + i1] / (d_ > 0.0f ? d_ : 1.0f);
                }
            }
        }
        free(arena);
    }
    return fail;
}
