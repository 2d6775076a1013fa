/* Generated by the MCFuser reproduction compiled backend.
 * chain: golden-3gemm
 * schedule: npmhk[Tm=8,Tn=32,Tk=8,Th=16,Tp=19]
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

int mcfuser_kernel(const float* restrict g0, const float* restrict g1, const float* restrict g3, const float* restrict g5, float* restrict g6) {
    int fail = 0;
    #pragma omp parallel for collapse(3) schedule(static) reduction(|:fail)
    for (long b = 0; b < 2; b++)
    for (long g_1 = 0; g_1 < 5; g_1++)
    for (long g_2 = 0; g_2 < 3; g_2++)
    {
        float* arena = (float*)malloc(1672 * sizeof(float));
        if (!arena) { fail = 1; continue; }
        float* restrict sm0 = arena + 0;
        float* restrict sm1 = arena + 64;
        float* restrict sm3 = arena + 320;
        float* restrict sm5 = arena + 832;
        float* restrict acc0 = arena + 1136;
        float* restrict acc1 = arena + 1392;
        float* restrict acc2 = arena + 1520;
        int alive0 = 0;
        long key0_0 = -1; (void)key0_0;
        long key0_1 = -1; (void)key0_1;
        int alive1 = 0;
        long key1_0 = -1; (void)key1_0;
        long key1_1 = -1; (void)key1_1;
        int alive2 = 0;
        long key2_0 = -1; (void)key2_0;
        long key2_1 = -1; (void)key2_1;
        for (long L0 = 0; L0 < 5; L0++) { /* h */
            for (long L1 = 0; L1 < 9; L1++) { /* k */
                { /* Load tile A */
                    long s0 = (long)(g_1) * 8;
                    long v0 = 40 - s0 < 8 ? 40 - s0 : 8;
                    long s1 = (long)(L1) * 8;
                    long v1 = 70 - s1 < 8 ? 70 - s1 : 8;
                    if (v0 < 8 || v1 < 8) memset(sm0, 0, 64 * sizeof(float));
                    if (v0 > 0 && v1 > 0) {
                        for (long i0 = 0; i0 < v0; i0++)
                            memcpy(sm0 + (i0 * 8 + 0), g0 + (b * 2800 + (s0 + i0) * 70 + s1), v1 * sizeof(float));
                    }
                }
                { /* Load tile B */
                    long s0 = (long)(L1) * 8;
                    long v0 = 70 - s0 < 8 ? 70 - s0 : 8;
                    long s1 = (long)(0) * 32;
                    long v1 = 25 - s1 < 32 ? 25 - s1 : 32;
                    if (v0 < 8 || v1 < 32) memset(sm1, 0, 256 * sizeof(float));
                    if (v0 > 0 && v1 > 0) {
                        for (long i0 = 0; i0 < v0; i0++)
                            memcpy(sm1 + (i0 * 32 + 0), g1 + (b * 1750 + (s0 + i0) * 25 + s1), v1 * sizeof(float));
                    }
                }
                { /* Compute C */
                    if (!alive0 || (L1 == 0)) {
                        memset(acc0, 0, 256 * sizeof(float));
                        alive0 = 1;
                    }
                    for (long t0 = 0; t0 < 8; t0 += 4) {
                        for (long t2 = 0; t2 < 32; t2 += 32) {
                            mcf_v c0_0; memcpy(&c0_0, acc0 + (t0 * 32 + t2), sizeof(mcf_v));
                            mcf_v c0_1; memcpy(&c0_1, acc0 + (t0 * 32 + (t2 + 16)), sizeof(mcf_v));
                            mcf_v c1_0; memcpy(&c1_0, acc0 + ((t0 + 1) * 32 + t2), sizeof(mcf_v));
                            mcf_v c1_1; memcpy(&c1_1, acc0 + ((t0 + 1) * 32 + (t2 + 16)), sizeof(mcf_v));
                            mcf_v c2_0; memcpy(&c2_0, acc0 + ((t0 + 2) * 32 + t2), sizeof(mcf_v));
                            mcf_v c2_1; memcpy(&c2_1, acc0 + ((t0 + 2) * 32 + (t2 + 16)), sizeof(mcf_v));
                            mcf_v c3_0; memcpy(&c3_0, acc0 + ((t0 + 3) * 32 + t2), sizeof(mcf_v));
                            mcf_v c3_1; memcpy(&c3_1, acc0 + ((t0 + 3) * 32 + (t2 + 16)), sizeof(mcf_v));
                            for (long t1 = 0; t1 < 8; t1++) {
                                float a0 = sm0[t0 * 8 + t1];
                                float a1 = sm0[(t0 + 1) * 8 + t1];
                                float a2 = sm0[(t0 + 2) * 8 + t1];
                                float a3 = sm0[(t0 + 3) * 8 + t1];
                                mcf_v p0; memcpy(&p0, sm1 + (t1 * 32 + t2), sizeof(mcf_v));
                                mcf_v p1; memcpy(&p1, sm1 + (t1 * 32 + (t2 + 16)), sizeof(mcf_v));
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
            }
            { /* Load tile D */
                long s0 = (long)(0) * 32;
                long v0 = 25 - s0 < 32 ? 25 - s0 : 32;
                long s1 = (long)(L0) * 16;
                long v1 = 66 - s1 < 16 ? 66 - s1 : 16;
                if (v0 < 32 || v1 < 16) memset(sm3, 0, 512 * sizeof(float));
                if (v0 > 0 && v1 > 0) {
                    for (long i0 = 0; i0 < v0; i0++)
                        memcpy(sm3 + (i0 * 16 + 0), g3 + (b * 1650 + (s0 + i0) * 66 + s1), v1 * sizeof(float));
                }
            }
            { /* Compute E */
                if (!alive1 || key1_0 != L0 || (1)) {
                    memset(acc1, 0, 128 * sizeof(float));
                    alive1 = 1;
                    key1_0 = L0;
                }
                for (long t0 = 0; t0 < 8; t0 += 4) {
                    for (long t2 = 0; t2 < 16; t2 += 16) {
                        mcf_v c0_0; memcpy(&c0_0, acc1 + (t0 * 16 + t2), sizeof(mcf_v));
                        mcf_v c1_0; memcpy(&c1_0, acc1 + ((t0 + 1) * 16 + t2), sizeof(mcf_v));
                        mcf_v c2_0; memcpy(&c2_0, acc1 + ((t0 + 2) * 16 + t2), sizeof(mcf_v));
                        mcf_v c3_0; memcpy(&c3_0, acc1 + ((t0 + 3) * 16 + t2), sizeof(mcf_v));
                        for (long t1 = 0; t1 < 32; t1++) {
                            float a0 = acc0[t0 * 32 + t1];
                            float a1 = acc0[(t0 + 1) * 32 + t1];
                            float a2 = acc0[(t0 + 2) * 32 + t1];
                            float a3 = acc0[(t0 + 3) * 32 + t1];
                            mcf_v p0; memcpy(&p0, sm3 + (t1 * 16 + t2), sizeof(mcf_v));
                            c0_0 += a0 * p0;
                            c1_0 += a1 * p0;
                            c2_0 += a2 * p0;
                            c3_0 += a3 * p0;
                        }
                        memcpy(acc1 + (t0 * 16 + t2), &c0_0, sizeof(mcf_v));
                        memcpy(acc1 + ((t0 + 1) * 16 + t2), &c1_0, sizeof(mcf_v));
                        memcpy(acc1 + ((t0 + 2) * 16 + t2), &c2_0, sizeof(mcf_v));
                        memcpy(acc1 + ((t0 + 3) * 16 + t2), &c3_0, sizeof(mcf_v));
                    }
                }
            }
            { /* Load tile G */
                long s0 = (long)(L0) * 16;
                long v0 = 66 - s0 < 16 ? 66 - s0 : 16;
                long s1 = (long)(g_2) * 19;
                long v1 = 42 - s1 < 19 ? 42 - s1 : 19;
                if (v0 < 16 || v1 < 19) memset(sm5, 0, 304 * sizeof(float));
                if (v0 > 0 && v1 > 0) {
                    for (long i0 = 0; i0 < v0; i0++)
                        memcpy(sm5 + (i0 * 19 + 0), g5 + (b * 2772 + (s0 + i0) * 42 + s1), v1 * sizeof(float));
                }
            }
            { /* Compute F */
                if (!alive2 || (L0 == 0)) {
                    memset(acc2, 0, 152 * sizeof(float));
                    alive2 = 1;
                }
                for (long t0 = 0; t0 < 8; t0 += 4) {
                    for (long t2 = 0; t2 < 16; t2 += 16) {
                        mcf_v c0_0; memcpy(&c0_0, acc2 + (t0 * 19 + t2), sizeof(mcf_v));
                        mcf_v c1_0; memcpy(&c1_0, acc2 + ((t0 + 1) * 19 + t2), sizeof(mcf_v));
                        mcf_v c2_0; memcpy(&c2_0, acc2 + ((t0 + 2) * 19 + t2), sizeof(mcf_v));
                        mcf_v c3_0; memcpy(&c3_0, acc2 + ((t0 + 3) * 19 + t2), sizeof(mcf_v));
                        for (long t1 = 0; t1 < 16; t1++) {
                            float a0 = acc1[t0 * 16 + t1];
                            float a1 = acc1[(t0 + 1) * 16 + t1];
                            float a2 = acc1[(t0 + 2) * 16 + t1];
                            float a3 = acc1[(t0 + 3) * 16 + t1];
                            mcf_v p0; memcpy(&p0, sm5 + (t1 * 19 + t2), sizeof(mcf_v));
                            c0_0 += a0 * p0;
                            c1_0 += a1 * p0;
                            c2_0 += a2 * p0;
                            c3_0 += a3 * p0;
                        }
                        memcpy(acc2 + (t0 * 19 + t2), &c0_0, sizeof(mcf_v));
                        memcpy(acc2 + ((t0 + 1) * 19 + t2), &c1_0, sizeof(mcf_v));
                        memcpy(acc2 + ((t0 + 2) * 19 + t2), &c2_0, sizeof(mcf_v));
                        memcpy(acc2 + ((t0 + 3) * 19 + t2), &c3_0, sizeof(mcf_v));
                    }
                    for (long t2 = 16; t2 < 19; t2++) {
                        float c0_0 = acc2[t0 * 19 + t2];
                        float c1_0 = acc2[(t0 + 1) * 19 + t2];
                        float c2_0 = acc2[(t0 + 2) * 19 + t2];
                        float c3_0 = acc2[(t0 + 3) * 19 + t2];
                        for (long t1 = 0; t1 < 16; t1++) {
                            float a0 = acc1[t0 * 16 + t1];
                            float a1 = acc1[(t0 + 1) * 16 + t1];
                            float a2 = acc1[(t0 + 2) * 16 + t1];
                            float a3 = acc1[(t0 + 3) * 16 + t1];
                            float p0 = sm5[t1 * 19 + t2];
                            c0_0 += a0 * p0;
                            c1_0 += a1 * p0;
                            c2_0 += a2 * p0;
                            c3_0 += a3 * p0;
                        }
                        acc2[t0 * 19 + t2] = c0_0;
                        acc2[(t0 + 1) * 19 + t2] = c1_0;
                        acc2[(t0 + 2) * 19 + t2] = c2_0;
                        acc2[(t0 + 3) * 19 + t2] = c3_0;
                    }
                }
            }
        }
        { /* Store tile F */
            long s0 = (long)(g_1) * 8;
            long v0 = 40 - s0 < 8 ? 40 - s0 : 8;
            long s1 = (long)(g_2) * 19;
            long v1 = 42 - s1 < 19 ? 42 - s1 : 19;
            for (long i0 = 0; i0 < v0; i0++) {
                for (long i1 = 0; i1 < v1; i1++) {
                    g6[b * 1680 + (s0 + i0) * 42 + (s1 + i1)] = acc2[i0 * 19 + i1];
                }
            }
        }
        free(arena);
    }
    return fail;
}
