/* The tridiagonal kernel I - c*D2 of both implicit operators, and the step
   loops of the forward and backward IMEX marches. pttrf and the solve are
   reference LAPACK's dpttrf and dptts2, operation for operation, and each
   march expression is one numpy node of the scheme, in the same order, so
   every frame is bit for bit that of the numpy reference loops of the
   tests. Build with -ffp-contract=off and without -ffast-math: a fused
   multiply-add or a reassociated sum would change the bits. Rows are
   indexed with ptrdiff_t; n is a C int. */

#include <math.h>
#include <stddef.h>
#include <string.h>

/* L D L^T of the SPD tridiagonal matrix with diagonal d (n entries) and
   off-diagonal e (n - 1), in place: d becomes D and e the subdiagonal of
   the unit bidiagonal L (dpttrf; no pivot is nonpositive for c >= 0) */
void pttrf(int n, double *d, double *e)
{
    for (ptrdiff_t i = 0; i < n - 1; i++) {
        double ei = e[i];
        e[i] = ei / d[i];
        d[i + 1] = d[i + 1] - e[i] * ei;
    }
}

/* solve L D L^T x = b in place on entries b[0], b[inc], ... (dptts2 for
   n >= 2; LAPACK multiplies by 1/d at n = 1, and grids have n >= 3). The
   last entry written is carried in x: b may alias d and e for all the
   compiler knows, so re-reading it would be a load per node. */
static void solve(const double *d, const double *e, double *b, int n,
                  ptrdiff_t inc)
{
    double x = b[0];
    ptrdiff_t i;
    for (i = 1; i < n; i++)
        b[i * inc] = x = b[i * inc] - x * e[i - 1];
    b[(n - 1) * inc] = x = x / d[n - 1];
    for (i = n - 2; i >= 0; i--)
        b[i * inc] = x = b[i * inc] / d[i] - x * e[i];
}

/* dpttrs on nrhs right-hand sides of any layout: entry i of right-hand
   side j is b[i*inc + j*ldb] */
void ptts2(int n, ptrdiff_t nrhs, const double *d, const double *e,
           double *b, ptrdiff_t inc, ptrdiff_t ldb)
{
    for (ptrdiff_t j = 0; j < nrhs; j++)
        solve(d, e, b + j * ldb, n, inc);
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
        solve(dd, de, y1, n, 1);
        memcpy(u1, y1, (size_t)n * sizeof(double));
        solve(vd, ve, u1, n, 1);
    }
    for (i = 0; i < n; i++)
        UX[N * n + i] = (Up[N * w + i + 2] - Up[N * w + i]) / h2;
}

/* Backward recursion in lam (rows of width n, stride n): frames
   stop..top-1 from frame top, as tangent_adjoint._march_back documents.
   Y, U, UX are the base frames with row strides ys, us, xs. Each step forms
   its frame's coefficients of the transposed tangent term,
   (dt A/2h, 1 - dt B, dt C, dt E/2h) with A = u^2 - u_x^2, B = 4 u_x y,
   C = 2 u y_x and E = 2(u_x y_x - y^2) - k, as _step_coefficients does,
   and y_x as grid.d1. work holds 4n + 4 doubles, its first 2n + 4 zero. */
void march_back(const double *kd, const double *ke, const double *dd,
                const double *de, int n, ptrdiff_t N, ptrdiff_t stop,
                ptrdiff_t top, double dt, double cc, double h2, double kk,
                double last, const double *Y, ptrdiff_t ys,
                const double *U, ptrdiff_t us, const double *UX, ptrdiff_t xs,
                double *lam, double *work)
{
    double *pa = work + 1, *pe = work + n + 3;  /* zero-padded rows */
    double *cw = work + 2 * n + 4, *bw = work + 3 * n + 4;
    ptrdiff_t f = top < N - 1 ? top : N - 1, k, i;
    for (k = stop; k < top; k++)
        for (i = 0; i < n; i++)
            lam[k * n + i] = dt * lam[k * n + i];
    double *psi = lam + f * n;
    if (top == N) {
        for (i = 0; i < n; i++)
            psi[i] = last * psi[i];
        solve(dd, de, psi, n, 1);
    }
    for (k = f; k > stop; k--) {
        const double *y = Y + k * ys, *u = U + k * us, *ux = UX + k * xs;
        double *lam1 = lam + (k - 1) * n;
        for (i = 0; i < n; i++) {
            double ydx = i == 0 ? y[1] : i == n - 1 ? -y[n - 2]
                                                    : y[i + 1] - y[i - 1];
            ydx = ydx / h2;
            double a = (u[i] * u[i] - ux[i] * ux[i]) * cc;
            double b = (4.0 * (ux[i] * y[i])) * -dt + 1.0;
            double c = (2.0 * (u[i] * ydx)) * dt;
            double e = ((ux[i] * ydx - y[i] * y[i]) * 2.0 - kk) * cc;
            pa[i] = a * psi[i];
            pe[i] = e * psi[i];
            cw[i] = c * psi[i];
            bw[i] = b * psi[i];
        }
        /* lam1 += (b*psi + D(a*psi)) - K(c*psi + D(e*psi)), with D the
           padded difference and K the Helmholtz solve */
        for (i = 0; i < n; i++) {
            cw[i] = cw[i] + (pe[i + 1] - pe[i - 1]);
            bw[i] = bw[i] + (pa[i + 1] - pa[i - 1]);
        }
        solve(kd, ke, cw, n, 1);
        for (i = 0; i < n; i++)
            lam1[i] = (bw[i] - cw[i]) + lam1[i];
        solve(dd, de, lam1, n, 1);
        psi = lam1;
    }
}
