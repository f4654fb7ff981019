/* kweave's compiled loops, one library that kweave._native.library() builds
   and loads. Each entry does the float operations of the numpy code it stands
   in for in the same order, so both give the same bits. That holds when built
   as _native._CFLAGS says: -O2 -ffp-contract=off (no fused multiply-add), with
   neither -ffast-math nor -march.

   svm.smo_train's binary fit is smo_fit, as svm._numpy_fit does it; svm.py
   explains each step. Ties and NaNs follow numpy's argmax and argmin (the
   first index of the extreme, or the first NaN) and Python's min and max (the
   first argument wins a tie, and a NaN wins only as the first). numpy's max
   and min give a NaN if they meet one. The bias sums the free duals' values
   left to right, as np.add.accumulate does. Both fits add 0.0 to the KKT gap
   and the bias, so a zero is +0.0 whichever zeros a max, min or sum met. K is
   the n x n C-contiguous Gram, U holds the rows u and l. alpha and U are
   updated in place.

   kernels.combine's weighted sum is combine_rows; kernels.center_bank's
   elementwise centering of one Gram is center_pairs, and its copy of a
   staging block into the store's columns stage_to_columns. */

#include <math.h>
#include <stdint.h>

/* a pair loop's status, then smo_fit's refusal of its arrays (svm._array_fault
   names the fault) */
enum { SMO_CONVERGED, SMO_STALLED, SMO_CAPPED, SMO_REFUSED };

static int64_t arg_extreme(const double *v, int64_t n, int largest)
{
    int64_t best = 0;
    for (int64_t k = 1; k < n && !isnan(v[best]); k++)
        if (largest ? !(v[k] <= v[best]) : !(v[k] >= v[best]))
            best = k;
    return best;
}

/* min(max(a, 0.0), C) */
static double clip(double a, double C)
{
    a = 0.0 > a ? 0.0 : a;
    return C < a ? C : a;
}

/* a step that moves k onto or off a bound rewrites u[k] and l[k] */
static void rebound(double *u, double *l, const double *y, int64_t k, double a,
                    double a_old, double C)
{
    if (0.0 < a && a < C && 0.0 < a_old && a_old < C)
        return;
    double mk = u[k] > -INFINITY ? u[k] : l[k];
    int up = y[k] > 0 ? a < C : a > 0.0;
    int low = y[k] > 0 ? a > 0.0 : a < C;
    u[k] = up ? mk : -INFINITY;
    l[k] = low ? mk : INFINITY;
}

/* The pair steps from the start U. Returns SMO_CONVERGED, SMO_STALLED or
   SMO_CAPPED, with the pair steps taken in *steps and, at a stall, the KKT gap
   in *gap. */
static int smo_loop(const double *K, const double *y, double *alpha, double *U,
                    int64_t n, double C, double tol, int64_t max_iter, double tau,
                    int64_t *steps, double *gap)
{
    double *u = U, *l = U + n;
    int status = SMO_CAPPED;
    int64_t it = 0;
    for (; it < max_iter; it++) {
        int64_t i = arg_extreme(u, n, 1), j = arg_extreme(l, n, 0);
        double mi = u[i], mj = l[j];
        if (mi - mj <= tol) {
            status = SMO_CONVERGED;
            break;
        }
        double yi = y[i], yj = y[j], old_i = alpha[i], old_j = alpha[j];
        double quad = K[i * n + i] + K[j * n + j] - 2.0 * K[i * n + j];
        double delta = (mi - mj) / (tau > quad ? tau : quad);
        double cap_i = yi > 0 ? C - old_i : old_i;
        double cap_j = yj > 0 ? old_j : C - old_j;
        delta = cap_i < delta ? cap_i : delta;
        delta = cap_j < delta ? cap_j : delta;
        double s = yi * old_i + yj * old_j, ai, aj;
        if (cap_j <= cap_i && delta >= cap_j) {
            aj = yj > 0 ? 0.0 : C;
            ai = yi * (s - yj * aj);
        } else if (delta >= cap_i) {
            ai = yi > 0 ? C : 0.0;
            aj = yj * (s - yi * ai);
        } else {
            ai = old_i + yi * delta;
            aj = old_j - yj * delta;
        }
        ai = clip(ai, C);
        aj = clip(aj, C);
        alpha[i] = ai;
        alpha[j] = aj;
        double dai = ai - old_i, daj = aj - old_j;
        if (dai == 0.0 && daj == 0.0) {
            *gap = mi - mj;
            status = SMO_STALLED;
            break;
        }
        const double *Ki = K + i * n, *Kj = K + j * n;
        double ci = yi * dai, cj = yj * daj;
        for (int64_t k = 0; k < n; k++) {
            double t = Ki[k] * ci + Kj[k] * cj;
            u[k] = u[k] - t;
            l[k] = l[k] - t;
        }
        rebound(u, l, y, i, ai, old_i, C);
        rebound(u, l, y, j, aj, old_j, C);
    }
    *steps = it;
    return status;
}

/* No entry of v[0..count) is NaN or inf: v - v is 0.0 for a finite v and NaN
   for any other. Four independent sums, which the compiler vectorizes at -O2
   without reordering any one of them. */
static int all_finite(const double *v, int64_t count)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    for (; k + 4 <= count; k += 4)
        for (int w = 0; w < 4; w++)
            acc[w] += v[k + w] - v[k + w];
    for (; k < count; k++)
        acc[0] += v[k] - v[k];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]) == 0.0;
}

/* numpy's max (largest) or min of the values added, -inf or +inf before any */
struct extreme {
    double x;
    int largest;
};

static void extreme_add(struct extreme *e, double v)
{
    if (isnan(e->x))
        return;
    if (isnan(v) || (e->largest ? v > e->x : v < e->x))
        e->x = v;
}

/* The whole binary fit: the array checks, the start U, smo_loop, the KKT gap
   and the bias. Ka is K (alpha * y) for a seeded fit, NULL for a cold one
   (alpha = 0, whose start m = y - K 0 is y exactly). Returns SMO_REFUSED
   before touching alpha, U, *steps or out unless K is finite, y holds only
   +1 and -1 and both of them, and a seeded alpha is finite and inside [0, C];
   else smo_loop's
   status. out receives the KKT gap at a stall, the KKT gap at exit and the
   bias. */
int smo_fit(const double *K, const double *y, double *alpha, double *U, int64_t n,
            double C, double tol, int64_t max_iter, double tau, const double *Ka,
            int64_t *steps, double *out)
{
    if (!all_finite(K, n * n) || (Ka && !all_finite(alpha, n)))
        return SMO_REFUSED;
    int has_pos = 0, has_neg = 0, signs = 1, in_box = 1;
    for (int64_t k = 0; k < n; k++) {
        has_pos |= y[k] > 0;
        has_neg |= y[k] < 0;
        signs &= fabs(y[k]) == 1.0;
        in_box &= !(alpha[k] < 0.0) && !(alpha[k] > C);
    }
    if (!(has_pos && has_neg && signs && in_box))
        return SMO_REFUSED;

    double *u = U, *l = U + n;
    for (int64_t k = 0; k < n; k++) {
        double m = Ka ? y[k] - Ka[k] : y[k];
        int below_c = alpha[k] < C, above_0 = alpha[k] > 0.0;
        u[k] = (y[k] > 0 ? below_c : above_0) ? m : -INFINITY;
        l[k] = (y[k] > 0 ? above_0 : below_c) ? m : INFINITY;
    }
    int status = smo_loop(K, y, alpha, U, n, C, tol, max_iter, tau, steps, &out[0]);

    struct extreme top = {-INFINITY, 1}, bottom = {INFINITY, 0};
    for (int64_t k = 0; k < n; k++) {
        extreme_add(&top, u[k]);
        extreme_add(&bottom, l[k]);
    }
    double gap = top.x - bottom.x;
    out[1] = isfinite(gap) ? gap + 0.0 : 0.0;

    /* v = -y * G as svm._numpy_fit builds it; the free duals' v are summed
       in index order */
    double eps = 1e-8 * C, sum = 0.0;
    int64_t n_free = 0;
    struct extreme lo = {-INFINITY, 1}, hi = {INFINITY, 0};
    for (int64_t k = 0; k < n; k++) {
        double m = u[k] > -INFINITY ? u[k] : l[k];
        double v = -y[k] * (-y[k] * m + 0.0), a = alpha[k];
        if (a > eps && a < C - eps) {
            sum += v;
            n_free++;
        }
        if (y[k] > 0 ? a <= eps : a >= C - eps)
            extreme_add(&lo, v);
        if (y[k] > 0 ? a >= C - eps : a <= eps)
            extreme_add(&hi, v);
    }
    if (n_free)
        out[2] = sum / (double)n_free;
    else if (isinf(lo.x))
        out[2] = hi.x;
    else if (isinf(hi.x))
        out[2] = lo.x;
    else
        out[2] = (lo.x + hi.x) / 2.0;
    out[2] += 0.0;
    return status;
}

/* kernels.combine's sum over a C-contiguous float32 (rows, p) store Z: acc[r]
   is the sum, from 0.0 and in q order, of w[q] * Z[r, keep[q]] taken in
   double, as numpy's acc += np.multiply(w[l], Z[:, l], dtype=float64) adds it
   for one kept kernel l after another. Four rows at a time, each with its own
   sum, so no sum is reordered. */
void combine_rows(const float *Z, int64_t rows, int64_t p, const int64_t *keep,
                  const double *w, int64_t k, double *acc)
{
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float *z0 = Z + r * p, *z1 = z0 + p, *z2 = z1 + p, *z3 = z2 + p;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int64_t q = 0; q < k; q++) {
            int64_t l = keep[q];
            double wq = w[q];
            s0 += wq * (double)z0[l];
            s1 += wq * (double)z1[l];
            s2 += wq * (double)z2[l];
            s3 += wq * (double)z3[l];
        }
        acc[r] = s0;
        acc[r + 1] = s1;
        acc[r + 2] = s2;
        acc[r + 3] = s3;
    }
    for (; r < rows; r++) {
        const float *z = Z + r * p;
        double s = 0.0;
        for (int64_t q = 0; q < k; q++)
            s += w[q] * (double)z[keep[q]];
        acc[r] = s;
    }
}

/* One Gram's centered, scaled values at the pairs (ii[r], jj[r]), r < size,
   rounded into the float32 row out: ((K[i, j] - (rm[i] + rm[j])) + gm) / s,
   as kernels.center_bank's numpy code builds the (n, n) array
   (K - (rm[:, None] + rm)) + gm, takes the pairs from it and divides them by
   s into the row. K is the n x n C-contiguous Gram. */
void center_pairs(const double *K, int64_t n, const double *rm, double gm, double s,
                  const int32_t *ii, const int32_t *jj, int64_t size, float *out)
{
    for (int64_t r = 0; r < size; r++) {
        int64_t i = ii[r], j = jj[r];
        out[r] = (float)(((K[i * n + j] - (rm[i] + rm[j])) + gm) / s);
    }
}

/* Z[:, col:col + k] = stage[:k].T for the C-contiguous float32 stage, k rows
   of size values, and store Z, size rows of p: a row at a time, so each row
   of Z takes one contiguous write of k values. */
void stage_to_columns(const float *stage, int64_t k, int64_t size, float *Z, int64_t p,
                      int64_t col)
{
    for (int64_t r = 0; r < size; r++) {
        float *z = Z + r * p + col;
        for (int64_t q = 0; q < k; q++)
            z[q] = stage[q * size + r];
    }
}
