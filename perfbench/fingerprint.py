"""Environment fingerprint, read in a process that has imported magnonlab.

Records library versions, the CPU, the cores this process may use, the
inherited thread variables, and the thread count that the loaded OpenBLAS
reports through ``ctypes``. It reads only; it sets nothing.
"""

import ctypes
import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")
_OPENBLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                    "openblas_get_config64_", "openblas_get_config")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loaded_openblas():
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def openblas():
    """[{library, threads, config}] for every OpenBLAS mapped into this process."""
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)  # already loaded: returns the same handle
        except OSError:
            continue
        config = _first_symbol(lib, _OPENBLAS_CONFIG, ctypes.c_char_p)
        out.append({
            "library": os.path.basename(path),
            "threads": _first_symbol(lib, _OPENBLAS_THREADS, ctypes.c_int),
            "config": config.decode(errors="replace").strip() if config else None,
        })
    return out


def fingerprint():
    import mpmath
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": openblas(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
