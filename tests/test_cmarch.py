"""Building, caching and loading the compiled march kernel: the shared
object lives under the package's __pycache__, is written atomically, falls
back to a private temp directory, and a compiler that is missing or fails
is an io error with exit 2, never a traceback."""

import json
import os
import pkgutil
import stat
from pathlib import Path

import numpy as np
import pytest

import mchcontrol
from mchcontrol import cli, cmarch
from mchcontrol.errors import KernelBuildError
from mchcontrol.forward import ControlWindow, ModelParams, solve_forward
from mchcontrol.grid import Domain1D, TimeGrid
from mchcontrol.helmholtz import get_operator
from mchcontrol.tangent_adjoint import _march_back, solve_tangent

CI_CONFIG = {"domain": {"L": 2.0, "n_interior": 24},
             "time": {"T": 0.5, "n_steps": 60},
             "model": {"epsilon": 0.1, "k": 0.4},
             "initial": {"kind": "sine_mix", "coefficients": [0.3, 0.1]},
             "control": {"kind": "bump", "amplitude": 0.6}}


@pytest.fixture
def unloaded():
    """The kernel forgotten by this process before and after the test, so
    that the test's first march builds or finds it again."""
    cmarch.library.cache_clear()
    yield
    cmarch.library.cache_clear()


def march():
    dom, tg = Domain1D(2.0, 8), TimeGrid(0.5, 4)
    return solve_forward(dom, tg, ModelParams(0.1), np.sin(dom.x)).y


def objects(d: Path) -> list:
    return sorted(p.name for p in d.iterdir())


def fake_compiler(tmp_path, body: str) -> str:
    """An executable that answers --version and runs body otherwise."""
    cc = tmp_path / "fake-cc"
    cc.write_text("#!/bin/sh\n"
                  'if [ "$1" = --version ]; then echo fake-cc 1.0; exit 0; fi\n'
                  + body + "\n")
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    return str(cc)


def test_kernel_is_cached_under_pycache(unloaded):
    """The object is built (or found) in the package's __pycache__, so the
    package directory holds no shared object for pkgutil to list as a
    module."""
    path = cmarch._build()
    assert path.parent == Path(mchcontrol.__file__).parent / "__pycache__"
    assert path.name.startswith("cmarch-") and path.suffix == ".so"
    assert not list(Path(mchcontrol.__file__).parent.glob("*.so"))
    assert {m.name for m in pkgutil.iter_modules(mchcontrol.__path__)} \
        >= {"cmarch", "forward"}
    assert not any(m.name.startswith("cmarch-")
                   for m in pkgutil.iter_modules(mchcontrol.__path__))


def test_unwritable_cache_dir_falls_back(unloaded, tmp_path, monkeypatch):
    """A cache directory that cannot be made (one under a regular file; the
    tests run as root, so a read-only mode would prove nothing) gives way to
    the next, which then holds exactly the object, and the march is the
    same. A second load reuses it without compiling."""
    want = march()
    blocker = tmp_path / "file"
    blocker.write_text("")
    fallback = tmp_path / "fallback"
    monkeypatch.setattr(cmarch, "cache_dirs",
                        lambda: [blocker / "cache", fallback])
    cmarch.library.cache_clear()
    assert march().tobytes() == want.tobytes()
    [name] = objects(fallback)
    assert name.startswith("cmarch-") and name.endswith(".so")
    runs = []
    run = cmarch._run
    monkeypatch.setattr(cmarch, "_run",
                        lambda cc, args: runs.append(args) or run(cc, args))
    cmarch.library.cache_clear()
    assert march().tobytes() == want.tobytes()
    assert runs == [["--version"]] and objects(fallback) == [name]


def test_shared_fallback_dir_is_not_trusted(unloaded, tmp_path, monkeypatch):
    """A fallback directory that others can write is skipped, and with no
    other directory the build fails as an io error."""
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    monkeypatch.setattr(cmarch, "cache_dirs",
                        lambda: [tmp_path / "file" / "cache", shared])
    (tmp_path / "file").write_text("")
    with pytest.raises(KernelBuildError,
                       match="no cache directory can be written"):
        cmarch.library()
    assert objects(shared) == []


def test_missing_compiler_exits_2(unloaded, tmp_path, monkeypatch, capsys):
    """With a cold cache and CC naming no program, the first march raises
    KernelBuildError, an OSError naming the compiler, and every command
    reports it as an io error with exit 2 and no traceback, before it makes
    its output directory."""
    monkeypatch.setattr(cmarch, "cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setenv("CC", "/nonexistent")
    with pytest.raises(KernelBuildError) as err:
        march()
    assert isinstance(err.value, OSError)
    cfg = tmp_path / "ci.json"
    cfg.write_text(json.dumps(CI_CONFIG))
    capsys.readouterr()
    for cmd in cli._COMMANDS:
        out = tmp_path / f"out-{cmd}"
        assert cli.main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
        got = capsys.readouterr().err
        assert got.startswith("io error: cannot build the march kernel: C "
                              "compiler '/nonexistent' did not start: ")
        assert "Traceback" not in got
        assert not out.exists()
    assert not (tmp_path / "cache").exists()


def test_failing_compiler_names_its_stderr(unloaded, tmp_path, monkeypatch):
    """A compiler that fails is named with its exit status and stderr, and
    its output file is removed: the cache holds no partial object."""
    cc = fake_compiler(tmp_path, 'echo "out of inodes" >&2; exit 4')
    monkeypatch.setattr(cmarch, "cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setenv("CC", cc)
    with pytest.raises(KernelBuildError) as err:
        march()
    assert str(err.value) == ("cannot build the march kernel: C compiler "
                              f"{cc!r} exited 4: out of inodes")
    assert objects(tmp_path / "cache") == []


def test_object_appears_only_when_complete(unloaded, tmp_path, monkeypatch):
    """The compiler writes a temporary file, which is renamed into the
    cache only once the compiler has succeeded."""
    seen = []
    run = cmarch._run

    def compile_and_look(cc, args):
        out = run(cc, args)
        if "-o" in args:
            seen.append(objects(tmp_path / "cache"))
        return out

    monkeypatch.setattr(cmarch, "_run", compile_and_look)
    monkeypatch.setattr(cmarch, "cache_dirs", lambda: [tmp_path / "cache"])
    march()
    [during] = seen
    [name] = objects(tmp_path / "cache")
    assert name not in during and len(during) == 1
    assert os.access(tmp_path / "cache" / name, os.R_OK)


def test_load_prunes_the_other_objects(unloaded, tmp_path, monkeypatch):
    """A cache directory that holds the objects of two sources keeps only
    the one loaded: loading the kernel of the second source removes the
    first one's object and any other cmarch-*.so, and a file that another
    process removes first is passed over. The march is the same."""
    want = march()
    cache = tmp_path / "cache"
    monkeypatch.setattr(cmarch, "cache_dirs", lambda: [cache])
    first = cmarch._build()
    second = tmp_path / "cmarch.c"
    second.write_bytes(cmarch.SOURCE.read_bytes() + b"/* another */\n")
    monkeypatch.setattr(cmarch, "SOURCE", second)
    (cache / "cmarch-gone.so").write_bytes(b"")
    (cache / "other.so").write_bytes(b"")
    unlink = Path.unlink

    def raced(path, *args):
        if path.name == "cmarch-gone.so":  # removed by another process
            unlink(path)
        unlink(path, *args)

    monkeypatch.setattr(Path, "unlink", raced)
    cmarch.library.cache_clear()
    assert march().tobytes() == want.tobytes()
    [kept] = [name for name in objects(cache) if name != "other.so"]
    assert kept.startswith("cmarch-") and kept != first.name
    assert objects(cache) == sorted([kept, "other.so"])


def test_object_gone_before_its_load_is_built_again(unloaded, tmp_path,
                                                      monkeypatch):
    """An object that another process prunes between its build and its
    load is built once more and loaded; a load that fails with the object
    still in place is the loader's OSError, with no rebuild. (The loader
    reuses an object already loaded from the same path, so the cache
    directory is a fresh one.)"""
    want = march()
    monkeypatch.setattr(cmarch, "cache_dirs", lambda: [tmp_path / "cache"])
    runs = []
    run = cmarch._run
    monkeypatch.setattr(cmarch, "_run",
                        lambda cc, args: runs.append(args) or run(cc, args))
    load = cmarch.ctypes.PyDLL
    loads = []

    def pruned_first(name):
        loads.append(name)
        if len(loads) == 1:
            os.unlink(name)
        return load(name)

    monkeypatch.setattr(cmarch.ctypes, "PyDLL", pruned_first)
    cmarch.library.cache_clear()
    assert march().tobytes() == want.tobytes()
    assert len(loads) == 2 and sum("-o" in a for a in runs) == 2
    [name] = objects(tmp_path / "cache")
    assert loads == [str(tmp_path / "cache" / name)] * 2

    def broken(name):
        raise OSError(f"{name}: invalid ELF header")

    monkeypatch.setattr(cmarch.ctypes, "PyDLL", broken)
    runs.clear()
    cmarch.library.cache_clear()
    with pytest.raises(OSError, match="invalid ELF header"):
        cmarch.library()
    assert runs == [["--version"]] and objects(tmp_path / "cache") == [name]


@pytest.mark.parametrize("stop,top", [(3, 3), (-1, 4), (0, 5), (4, 4)])
def test_march_back_refuses_a_frame_range_outside_the_march(stop, top):
    """Frames stop..top-1 must be a nonempty range of 0..N-1 (here N = 4):
    the kernel is not asked to write outside the multiplier, and an empty
    range is a ValueError, not an IndexError from the finiteness scan."""
    dom, tg, p = Domain1D(2.0, 8), TimeGrid(0.5, 4), ModelParams(0.1)
    ft = solve_forward(dom, tg, p, np.sin(dom.x))
    lam = np.zeros_like(ft.y)
    with pytest.raises(ValueError, match="march_back: frames"):
        _march_back(ft, p, lam, 0.5, stop, top, ft.y)
    assert not lam.any()


def test_march_back_refuses_a_multiplier_that_is_not_c_ordered():
    """The multiplier is filled in place, so it must be a C-ordered float64
    (N+1, n) array; another layout is a ValueError and stays untouched. A
    source or minus that is not (N+1, n) is a ValueError too."""
    dom, tg, p = Domain1D(2.0, 8), TimeGrid(0.5, 4), ModelParams(0.1)
    ft = solve_forward(dom, tg, p, np.sin(dom.x))
    for lam in (np.ones_like(ft.y, order="F"), np.ones((5, 16))[:, ::2],
                np.ones(ft.y.shape, np.float32)):
        with pytest.raises(ValueError, match="march_back: an array of"):
            _march_back(ft, p, lam, 0.5, 0, 4, ft.y)
        assert (lam == 1.0).all()
    lam = np.ones_like(ft.y)
    for source, minus in ((np.ones((5, 7)), None), (ft.y, np.ones((4, 8)))):
        with pytest.raises(ValueError, match="march_back: a base frame or "
                           "source array"):
            _march_back(ft, p, lam, 0.5, 0, 4, source, minus)
        assert (lam == 1.0).all()


def test_tangent_march_refuses_what_it_cannot_address(monkeypatch):
    """cmarch.tangent_march raises ValueError before the C call for base
    frames off the grid, steps outside 0 <= k0 < s1 <= N, direction rows
    outside the steps or the nodes 0..n, and padded rows that are not
    C-ordered float64 (N+1, n+2) arrays; the same call with valid
    arguments is solve_tangent's march."""
    dom, tg, p = Domain1D(2.0, 8), TimeGrid(0.5, 4), ModelParams(0.1)
    ft = solve_forward(dom, tg, p, np.sin(dom.x))
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    (k0, s1), (i0, i1) = ((s.start, s.stop) for s in w.block)
    q = tg.dt * np.ones(w.block_shape)
    kernels = get_operator(dom), get_operator(dom, tg.dt * p.epsilon)
    h2 = 2.0 * dom.h

    def args(**kw):
        a = dict(k0=k0, s1=s1, i0=i0, y=ft.y, u=ft.u, ux=ft.ux, q=q,
                 Mp=np.zeros((5, 10)), Vp=np.zeros((5, 10)))
        a.update(kw)
        return a

    def march(a):
        cmarch.tangent_march(*kernels, a["k0"], a["s1"], a["i0"], tg.dt,
                             tg.dt / h2, h2, p.k, a["y"], a["u"], a["ux"],
                             a["q"], a["Mp"], a["Vp"])

    good = args()
    march(good)
    tan = solve_tangent(ft, w, np.ones(w.block_shape), p)
    assert good["Mp"][:, 1:-1].tobytes() == tan.m.tobytes()
    assert good["Vp"][:, 1:-1].tobytes() == tan.v.tobytes()

    class NoKernel:
        def __getattr__(self, name):
            raise AssertionError(f"the kernel's {name} was called")

    monkeypatch.setattr(cmarch, "library", NoKernel)
    bad = [args(y=ft.y[:-1]), args(u=ft.u[:, 1:]), args(ux=np.zeros((5, 9))),
           args(k0=-1, q=np.ones((s1 + 1, i1 - i0))), args(k0=s1, q=q[:0]),
           args(s1=5, q=np.ones((5 - k0, i1 - i0))), args(q=q[1:]),
           args(i0=-1), args(i0=i0 + 9 - i1), args(q=np.ones((s1 - k0, 9))),
           args(q=q[:, 0]), args(Mp=np.zeros((5, 10), order="F")),
           args(Vp=np.zeros((5, 10), np.float32)), args(Mp=np.zeros((5, 9))),
           args(Vp=np.zeros((5, 20))[:, ::2])]
    for a in bad:
        with pytest.raises(ValueError, match="^tangent_march: "):
            march(a)
