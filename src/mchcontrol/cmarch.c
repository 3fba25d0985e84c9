/* The tridiagonal kernel I - c*D2 of both implicit operators, the step
   loops of the forward, tangent and backward IMEX marches, the optimizer's
   weighted pairing (the L2(Q0) product and the tracking misfit) and L-BFGS
   two-loop, and the row writer of the trajectory CSV. pttrf is reference
   LAPACK's dpttrf, operation for operation, plus the twist pivot and the
   pivots' reciprocals; the solve is the twisted (two-ended) L D L^T solve
   on those factors, two nodes a chain step by look-ahead, and each march
   expression is one numpy node of the scheme, in the same order, so every
   frame is bit for bit that of the numpy reference loops of the tests,
   which solve with the same kernel; the pairings add their terms in the
   one documented order of pair_row, as do the tests' reference loops.
   Build with -ffp-contract=off and without -ffast-math: a fused
   multiply-add or a reassociated sum would change the bits. Rows are
   indexed with ptrdiff_t; n is a C int in the marches.

   csv_rows formats every float as Python's repr does. Values outside its
   exact fast range go to CPython's own formatter, which allocates with
   PyMem_*, so the library is loaded with ctypes.PyDLL: every call holds
   the GIL. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* L D L^T of the SPD tridiagonal matrix with diagonal d (n entries, and n
   slots more) and off-diagonal e (n - 1, and one slot more), in place: d
   becomes D and e the subdiagonal of the unit bidiagonal L (dpttrf; no
   pivot is nonpositive for c >= 0), and d[n..2n-1] gets the reciprocals
   1/D of the pivots. e[n - 1] gets solve's twist pivot: the pivot d[p] of
   row p = n/2 less the term e[m-1]*E of the m = n-1-p rows below it, E the
   off-diagonal, read from the bottom (the matrix is persymmetric). */
void pttrf(int n, double *d, double *e)
{
    ptrdiff_t p = n / 2, m = n - 1 - p;
    double ep = e[p];
    for (ptrdiff_t i = 0; i < n - 1; i++) {
        double ei = e[i];
        e[i] = ei / d[i];
        d[i + 1] = d[i + 1] - e[i] * ei;
    }
    e[n - 1] = m ? d[p] - e[m - 1] * ep : d[p];
    for (ptrdiff_t i = 0; i < n; i++)
        d[n + i] = 1.0 / d[i];
}

/* solve L D L^T x = b in place on the n entries of b, twisted at p
   (Fernando, SIAM J. Matrix Anal. Appl. 18, 1997): the top rows 0..p-1 are
   eliminated downwards as dptts2 does, and at once the bottom rows
   n-1..p+1 upwards with the same factors, node n-1-i reading d[i] and e[i]
   as node i does; row p takes both and divides by the twist pivot, and
   the back substitution runs outward from p on q[i] = b[i]*r[i], r = d + n.
   Each chain steps two nodes by look-ahead (Kogge and Stone, IEEE Trans.
   Comput. C-22, 1973), x[i] = b[i] - x[i-1]*e[i-1] and x[i+1] =
   (b[i+1] - b[i]*e[i]) + (e[i]*e[i-1])*x[i-1], so one multiply and one add
   per two nodes wait on it, then one node a step. The chains' last entries
   are carried in x and y: b may alias d and e for all the compiler knows,
   so re-reading them would be a load per node. */
static void solve(const double *d, const double *e, double *b, int n)
{
    const double *r = d + n;
    ptrdiff_t p = n / 2, m = n - 1 - p, i;
    double x = b[0], y = b[n - 1];
    for (i = 1; i + 1 < m; i += 2) {
        double f = e[i] * e[i - 1], bi = b[i], bj = b[n - 1 - i];
        b[i] = bi - x * e[i - 1];
        b[n - 1 - i] = bj - y * e[i - 1];
        b[i + 1] = x = (b[i + 1] - bi * e[i]) + f * x;
        b[n - 2 - i] = y = (b[n - 2 - i] - bj * e[i]) + f * y;
    }
    for (; i < p; i++) {
        b[i] = x = b[i] - x * e[i - 1];
        if (i < m)
            b[n - 1 - i] = y = b[n - 1 - i] - y * e[i - 1];
    }
    double z = b[p];
    if (p)
        z = z - x * e[p - 1];
    if (m)
        z = z - y * e[m - 1];
    b[p] = x = y = z / e[n - 1];
    if (m < p)
        b[m] = x = b[m] * r[m] - x * e[m];
    for (i = m - 1; i > 0; i -= 2) {
        double f = e[i] * e[i - 1], qi = b[i] * r[i], qj = b[n - 1 - i] * r[i];
        b[i] = qi - x * e[i];
        b[n - 1 - i] = qj - y * e[i];
        b[i - 1] = x = (b[i - 1] * r[i - 1] - qi * e[i - 1]) + f * x;
        b[n - i] = y = (b[n - i] * r[i - 1] - qj * e[i - 1]) + f * y;
    }
    if (i == 0) {
        b[0] = b[0] * r[0] - x * e[0];
        b[n - 1] = b[n - 1] * r[0] - y * e[0];
    }
}

/* solve on nrhs right-hand sides, the rows of width n of b */
void ptts2(int n, ptrdiff_t nrhs, const double *d, const double *e,
           double *b)
{
    for (ptrdiff_t j = 0; j < nrhs; j++)
        solve(d, e, b + j * n, n);
}

/* max |s| over a row, NaN as soon as one entry is NaN (numpy's max) */
static double absmax(double m, double s)
{
    double a = fabs(s);
    return (a > m || a != a) ? a : m;
}

/* Forward march in zero-padded rows Yp, Up of width n + 2, and UX of width
   n. On entry frames 0..k0 of Yp and Up and rows 0..k0-1 of UX hold the
   head, and the interiors of frames k0+1..N of Yp hold dt*(B omega). Steps
   k0..N-1 write frame k+1, then row N of UX is filled. smax[k] is
   max |u^2 - u_x^2| of frame k, for k < N. vd, ve factor the Helmholtz
   kernel, dd, de the implicit diffusion. */
void forward_march(const double *vd, const double *ve, const double *dd,
                   const double *de, int n, ptrdiff_t N, ptrdiff_t k0,
                   double h2, double c, double dt2, double dtk, double *Yp,
                   double *Up, double *UX, double *smax)
{
    ptrdiff_t w = (ptrdiff_t)n + 2, k, i;
    for (k = 0; k < k0; k++) {
        const double *u = Up + k * w + 1, *ux = UX + k * n;
        double m = 0.0;
        for (i = 0; i < n; i++)
            m = absmax(m, u[i] * u[i] - ux[i] * ux[i]);
        smax[k] = m;
    }
    for (k = k0; k < N; k++) {
        const double *y = Yp + k * w + 1, *u = Up + k * w + 1;
        double *ux = UX + k * n, *y1 = Yp + (k + 1) * w + 1;
        double *u1 = Up + (k + 1) * w + 1, m = 0.0;
        for (i = 0; i < n; i++) {
            ux[i] = (u[i + 1] - u[i - 1]) / h2;
            double s = u[i] * u[i] - ux[i] * ux[i];
            m = absmax(m, s);
            /* y1 = (y + dt*om - (c*s)*(yr - yl)) - ((dt2*y)*y + dtk)*ux */
            y1[i] = y[i] + y1[i];
            y1[i] = y1[i] - (c * s) * (y[i + 1] - y[i - 1]);
            y1[i] = y1[i] - ((dt2 * y[i]) * y[i] + dtk) * ux[i];
        }
        smax[k] = m;
        solve(dd, de, y1, n);
        memcpy(u1, y1, (size_t)n * sizeof(double));
        solve(vd, ve, u1, n);
    }
    for (i = 0; i < n; i++)
        UX[N * n + i] = (Up[N * w + i + 2] - Up[N * w + i]) / h2;
}

/* (dt A/2h, 1 - dt B, dt C, dt E/2h) of the tangent term at node i of base
   frame y, u, ux, cc = dt/2h and h2 = 2h, as tangent_adjoint documents
   A..E. static inline: gcc -O2 keeps a plain static one out of line. */
struct coef { double a, b, c, e; };

static inline struct coef coefficients(const double *y, const double *u,
                                       const double *ux, int n, ptrdiff_t i,
                                       double dt, double cc, double h2,
                                       double kk)
{
    double ydx = (i == 0 ? y[1] : i == n - 1 ? -y[n - 2]
                  : y[i + 1] - y[i - 1]) / h2;
    return (struct coef){(u[i] * u[i] - ux[i] * ux[i]) * cc,
                         (4.0 * (ux[i] * y[i])) * -dt + 1.0,
                         (2.0 * (u[i] * ydx)) * dt,
                         ((ux[i] * ydx - y[i] * y[i]) * 2.0 - kk) * cc};
}

/* Tangent march in zero-padded rows Mp, Vp of width n + 2, zero on entry:
   frames k0..N of Vp solve the Helmholtz kernel on Mp's, and step k writes
   frame k+1 of Mp, adding row k - k0 of Q (nq nodes from i0) while k < s1.
   The other arguments are march_back's. */
void tangent_march(const double *kd, const double *ke, const double *dd,
                   const double *de, int n, ptrdiff_t N, ptrdiff_t k0,
                   ptrdiff_t s1, ptrdiff_t i0, ptrdiff_t nq, double dt,
                   double cc, double h2, double kk, const double *Y,
                   ptrdiff_t ys, const double *U, ptrdiff_t us,
                   const double *UX, ptrdiff_t xs, const double *Q,
                   double *Mp, double *Vp)
{
    ptrdiff_t w = (ptrdiff_t)n + 2, k, i;
    for (k = k0;; k++) {
        double *m = Mp + k * w + 1, *v = Vp + k * w + 1;
        memcpy(v, m, (size_t)n * sizeof(double));
        solve(kd, ke, v, n);
        if (k == N)
            return;
        double *m1 = m + w;
        for (i = 0; i < n; i++) {
            struct coef t = coefficients(Y + k * ys, U + k * us, UX + k * xs,
                                         n, i, dt, cc, h2, kk);
            /* m1 = ((b*m - a*(mr - ml)) - c*v) + e*(vr - vl) */
            m1[i] = ((t.b * m[i] - t.a * (m[i + 1] - m[i - 1])) - t.c * v[i])
                    + t.e * (v[i + 1] - v[i - 1]);
        }
        for (i = 0; k < s1 && i < nq; i++)
            m1[i0 + i] = m1[i0 + i] + Q[(k - k0) * nq + i];
        solve(dd, de, m1, n);
    }
}

/* Backward recursion in lam (C-ordered rows of width n): frames
   stop..top-1 from frame top, as tangent_adjoint._march_back documents.
   Y, U, UX are the base frames with row strides ys, us, xs; kd, ke factor
   the Helmholtz kernel, dd, de the implicit diffusion. Frame k - 1 takes
   its source dt*(S[k] - M[k]) (dt*S[k] for M NULL), S and M rows of
   strides ss, ms, as the step reaches it. work holds 4n + 4 doubles, its
   first 2n + 4 zero. */
void march_back(const double *kd, const double *ke, const double *dd,
                const double *de, int n, ptrdiff_t N, ptrdiff_t stop,
                ptrdiff_t top, double dt, double cc, double h2, double kk,
                double last, const double *Y, ptrdiff_t ys,
                const double *U, ptrdiff_t us, const double *UX, ptrdiff_t xs,
                const double *S, ptrdiff_t ss, const double *M, ptrdiff_t ms,
                double *lam, double *work)
{
    double *pa = work + 1, *pe = work + n + 3;  /* zero-padded rows */
    double *cw = work + 2 * n + 4, *bw = work + 3 * n + 4;
    ptrdiff_t f = top < N - 1 ? top : N - 1, k, i;
    double *psi = lam + f * n;
    if (top == N) {
        for (i = 0; i < n; i++) {
            double s = M ? S[N * ss + i] - M[N * ms + i] : S[N * ss + i];
            psi[i] = last * (dt * s);
        }
        solve(dd, de, psi, n);
    }
    for (k = f; k > stop; k--) {
        double *lam1 = lam + (k - 1) * n;
        for (i = 0; i < n; i++) {
            struct coef t = coefficients(Y + k * ys, U + k * us, UX + k * xs,
                                         n, i, dt, cc, h2, kk);
            pa[i] = t.a * psi[i];
            pe[i] = t.e * psi[i];
            cw[i] = t.c * psi[i];
            bw[i] = t.b * psi[i];
        }
        /* lam1 += (b*psi + D(a*psi)) - K(c*psi + D(e*psi)), with D the
           padded difference and K the Helmholtz solve */
        for (i = 0; i < n; i++) {
            cw[i] = cw[i] + (pe[i + 1] - pe[i - 1]);
            bw[i] = bw[i] + (pa[i + 1] - pa[i - 1]);
        }
        solve(kd, ke, cw, n);
        for (i = 0; i < n; i++) {
            double s = M ? S[k * ss + i] - M[k * ms + i] : S[k * ss + i];
            lam1[i] = (bw[i] - cw[i]) + dt * s;
        }
        solve(dd, de, lam1, n);
        psi = lam1;
    }
}

/* term i of pair_row */
static inline double term(const double *p, const double *q, const double *z,
                          ptrdiff_t i)
{
    return z ? (p[i] - z[i]) * (q[i] - z[i]) : p[i] * q[i];
}

/* The sum of (p[i] - z[i]) * (q[i] - z[i]) over a row of n, or of
   p[i] * q[i] for z NULL: four interleaved partial sums from 0.0, s_j
   taking the terms i = j mod 4 in order of i, combined as
   (s0 + s1) + (s2 + s3). The four chains are independent, so the sum runs
   at the adder's throughput rather than its latency. */
static inline double pair_row(const double *p, const double *q,
                              const double *z, ptrdiff_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    ptrdiff_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 = s0 + term(p, q, z, i);
        s1 = s1 + term(p, q, z, i + 1);
        s2 = s2 + term(p, q, z, i + 2);
        s3 = s3 + term(p, q, z, i + 3);
    }
    if (i < n)
        s0 = s0 + term(p, q, z, i);
    if (i + 1 < n)
        s1 = s1 + term(p, q, z, i + 1);
    if (i + 2 < n)
        s2 = s2 + term(p, q, z, i + 2);
    return (s0 + s1) + (s2 + s3);
}

/* scale * sum_k w_k * pair_row(p_k, q_k, z_k) over rows of width n with
   row strides ps, qs, zs (z NULL: no shift), w_k being w_end on the first
   and last row and w_mid on the others: the weighted row sums added in row
   order from 0.0. The row sum is inlined once with z and once with a
   literal NULL, so neither tests z per term. */
double pair(ptrdiff_t rows, ptrdiff_t n, double scale, double w_end,
            double w_mid, const double *p, ptrdiff_t ps, const double *q,
            ptrdiff_t qs, const double *z, ptrdiff_t zs)
{
    double acc = 0.0;
    for (ptrdiff_t k = 0; k < rows; k++) {
        const double *pk = p + k * ps, *qk = q + k * qs;
        double w = k == 0 || k == rows - 1 ? w_end : w_mid;
        acc = acc + w * (z ? pair_row(pk, qk, z + k * zs, n)
                           : pair_row(pk, qk, NULL, n));
    }
    return scale * acc;
}

/* d = -H g of the L-BFGS two-loop recursion (Nocedal & Wright, Alg. 7.4)
   over the m pairs (S[j], Y[j], rho[j]), oldest first, with H0 = gamma I
   when m > 0: SY holds the m pointers S[j], then the m pointers Y[j], and
   rho the m rho[j], then m doubles of work for the alphas. S[j], Y[j], g
   and d are C-ordered rows x n blocks, paired by pair with scale and unit
   weights. Each update is one numpy node of the reference: d - a*y,
   d*gamma, d + b*s. Returns the slope <g, d>. */
double two_loop(ptrdiff_t rows, ptrdiff_t n, double scale, ptrdiff_t m,
                const double *const *SY, double *rho, double gamma,
                const double *g, double *d)
{
    const double *const *S = SY, *const *Y = SY + m;
    double *alpha = rho + m;
    ptrdiff_t size = rows * n, i;
    for (i = 0; i < size; i++)
        d[i] = -g[i];
    for (ptrdiff_t j = m - 1; j >= 0; j--) {
        double a = alpha[j] = rho[j] * pair(rows, n, scale, 1.0, 1.0,
                                            S[j], n, d, n, NULL, 0);
        for (i = 0; i < size; i++)
            d[i] = d[i] - a * Y[j][i];
    }
    for (i = 0; m && i < size; i++)
        d[i] = d[i] * gamma;
    for (ptrdiff_t j = 0; j < m; j++) {
        double b = alpha[j] - rho[j] * pair(rows, n, scale, 1.0, 1.0,
                                            Y[j], n, d, n, NULL, 0);
        for (i = 0; i < size; i++)
            d[i] = d[i] + b * S[j][i];
    }
    return pair(rows, n, scale, 1.0, 1.0, g, n, d, n, NULL, 0);
}

typedef unsigned __int128 u128;
typedef char *(*dtoa_fn)(double, char, int, int, int *);
typedef void (*free_fn)(void *);

#define DTSF_ADD_DOT_0 0x02  /* Py_DTSF_ADD_DOT_0 of pystrtod.h */
#define VALUE_MAX 32         /* bytes: a repr and its separator, at most */

static const uint64_t POW10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u,
    100000000u, 1000000000u, 10000000000u, 100000000000u,
    1000000000000u, 10000000000000u, 100000000000000u,
    1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u};

/* repr of a finite v with 2^-13 <= |v| < 2^53, written at p; returns the
   end. v = 2m 2^-S with s = S - 1 >= 0, and the interval (2m - 1, 2m + 1)
   2^-S of the reals that round to v is scaled by 10^q, q = 17 -
   floor(E log10 2) for v in [2^E, 2^(E+1)): the scaled v lies in [1e17,
   2e18) and every product stays below 2^128. The shortest digits are the
   multiples in the interval of the largest 10^j, and of those dtoa's mode
   0 takes the one nearest v, ties to the even one; the interval is
   symmetric about v, so that is the nearer of the two around v. v is a
   multiple of 10^-s, so 10^j is at least 10^-s; the endpoints are not,
   nor is a point of [v - 2^-S, v), so neither which endpoints round to v
   nor the narrower gap below a power of two can change the digits.
   1e-4 <= |v| < 1e16, so the layout is positional. */
static char *shortest(char *p, double v)
{
    uint64_t bits, m;
    memcpy(&bits, &v, sizeof bits);
    int be = (int)(bits >> 52 & 0x7ff), E = be - 1023, S = 1076 - be;
    m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    int q = 17 - (E >= 0 ? E * 78913 >> 18 : -((-E * 78913 >> 18) + 1));
    u128 P = (u128)POW10[q < 19 ? q : 19] * POW10[q < 19 ? 0 : q - 19];
    u128 c = (u128)(2 * m) * P;
    /* the integers of the scaled interval, then its multiples of 10^j */
    uint64_t a = (uint64_t)((c - P) >> S) + 1, b = (uint64_t)((c + P) >> S);
    int j = 0;
    while ((a + 9) / 10 <= b / 10) {
        a = (a + 9) / 10;
        b = b / 10;
        j++;
    }
    uint64_t kf = (uint64_t)(c >> S) / POW10[j];
    u128 rem = c - ((u128)(kf * POW10[j]) << S), unit = (u128)POW10[j] << S;
    uint64_t k = 2 * rem < unit ? kf
               : 2 * rem > unit ? kf + 1 : kf + (kf & 1);
    char dig[20];
    int nd = 0;
    for (; k; k /= 10)
        dig[19 - nd++] = (char)('0' + k % 10);
    const char *d = dig + 20 - nd;
    int dp = nd + j - q;  /* v = 0.d * 10^dp */
    if (bits >> 63)
        *p++ = '-';
    if (dp <= 0) {  /* "0.", -dp zeros and the digits */
        memcpy(p, "0.000", (size_t)(2 - dp));
        p += 2 - dp;
        memcpy(p, d, (size_t)nd);
        return p + nd;
    }
    if (dp < nd) {
        memcpy(p, d, (size_t)dp);
        p[dp] = '.';
        memcpy(p + dp + 1, d + dp, (size_t)(nd - dp));
        return p + nd + 1;
    }
    memcpy(p, d, (size_t)nd);
    p += nd;
    for (; nd < dp; nd++)
        *p++ = '0';
    memcpy(p, ".0", 2);
    return p + 2;
}

/* repr(v) at p, then sep; the end, or NULL if CPython's formatter, which
   takes every value outside the fast range (and -0.0, NaN and inf), fails
   with the Python error set */
static char *put(char *p, double v, char sep, dtoa_fn dtoa, free_fn mfree)
{
    double a = fabs(v);
    if (v == 0.0 && !signbit(v)) {
        memcpy(p, "0.0", 3);
        p += 3;
    } else if (a >= 0x1p-13 && a < 0x1p53) {
        p = shortest(p, v);
    } else {
        char *s = dtoa(v, 'r', 0, DTSF_ADD_DOT_0, NULL);
        if (!s)
            return NULL;
        size_t len = strlen(s);
        memcpy(p, s, len);
        mfree(s);
        p += len;
    }
    *p++ = sep;
    return p;
}

/* CSV rows "t,x,c_0,...,c_{ncol-1}\n" of the row indices r..end-1, row r
   being node i = r % n of frame k = r / n: t[k], x[i] and entry (k, i) of
   each column col[j], whose rows are ld[j] doubles apart. lab holds n
   slots of VALUE_MAX bytes, zeroed before the first call of a file: slot
   i keeps the label "x[i]," ("x[i]\n" with no column) after its length
   byte, so each node's x is formatted once per file. Writes whole rows
   into buf while one more row surely fits in cap bytes, sets *len to the
   bytes written, and returns the next row index; -1 if CPython's
   formatter failed. dtoa and mfree are PyOS_double_to_string and
   PyMem_Free. The head and the label are copied as whole slots, a copy
   of fixed size that compiles inline; the bytes copied past them stay
   inside the row's reserve, where later text writes over them or *len
   leaves them out. */
ptrdiff_t csv_rows(ptrdiff_t r, ptrdiff_t end, ptrdiff_t n, const double *t,
                   const double *x, unsigned char *lab, int ncol,
                   const double *const *col, const ptrdiff_t *ld, char *buf,
                   ptrdiff_t cap, ptrdiff_t *len, dtoa_fn dtoa,
                   free_fn mfree)
{
    ptrdiff_t row = VALUE_MAX * ((ptrdiff_t)ncol + 2), k = r / n, i = r % n;
    ptrdiff_t hl = 0;
    char *p = buf, head[VALUE_MAX];  /* "t," of frame k once hl > 0 */
    for (; r < end && cap - (p - buf) >= row; r++) {
        unsigned char *s = lab + i * VALUE_MAX;
        if (!hl) {
            char *e = put(head, t[k], ',', dtoa, mfree);
            if (!e)
                return -1;
            hl = e - head;
        }
        if (!s[0]) {
            char *e = put((char *)s + 1, x[i], ncol ? ',' : '\n', dtoa,
                          mfree);
            if (!e)
                return -1;
            s[0] = (unsigned char)(e - (char *)s - 1);
        }
        memcpy(p, head, VALUE_MAX);
        memcpy(p + hl, s + 1, VALUE_MAX - 1);
        p += hl + s[0];
        for (int j = 0; p && j < ncol; j++)
            p = put(p, col[j][k * ld[j] + i], j + 1 < ncol ? ',' : '\n',
                    dtoa, mfree);
        if (!p)
            return -1;
        if (++i == n) {
            i = 0;
            k++;
            hl = 0;
        }
    }
    *len = p - buf;
    return r;
}
