/* The step loops of the forward and backward IMEX marches. Each expression
   is one numpy node of the scheme, in the same order, and the solves are
   LAPACK's dpttrs on the factors ShiftedLaplacianSolver holds, so every
   frame is bit for bit that of the numpy reference loops of the tests.
   Build with -ffp-contract=off and without -ffast-math: a fused
   multiply-add or a reassociated sum would change the bits. Rows are
   indexed with ptrdiff_t; n is LAPACK's int. */

#include <math.h>
#include <stddef.h>
#include <string.h>

typedef void pttrs_t(int *n, int *nrhs, double *d, double *e, double *b,
                     int *ldb, int *info);

static void solve(pttrs_t *pttrs, double *d, double *e, double *b, int n)
{
    int nrhs = 1, info;
    pttrs(&n, &nrhs, d, e, b, &n, &info);
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
void forward_march(pttrs_t *pttrs, double *vd, double *ve, double *dd,
                   double *de, int n, ptrdiff_t N, ptrdiff_t k0, double h2,
                   double c, double dt2, double dtk, double *Yp, double *Up,
                   double *UX, double *smax)
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
        solve(pttrs, dd, de, y1, n);
        memcpy(u1, y1, (size_t)n * sizeof(double));
        solve(pttrs, vd, ve, u1, n);
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
void march_back(pttrs_t *pttrs, double *kd, double *ke, double *dd,
                double *de, int n, ptrdiff_t N, ptrdiff_t stop, ptrdiff_t top,
                double dt, double cc, double h2, double kk, double last,
                const double *Y, ptrdiff_t ys, const double *U, ptrdiff_t us,
                const double *UX, ptrdiff_t xs, double *lam, double *work)
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
        solve(pttrs, dd, de, psi, n);
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
        solve(pttrs, kd, ke, cw, n);
        for (i = 0; i < n; i++)
            lam1[i] = (bw[i] - cw[i]) + lam1[i];
        solve(pttrs, dd, de, lam1, n);
        psi = lam1;
    }
}
