import importlib.util
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

MASKS_C_SOURCE = SRC / "powmon" / "_kernels" / "_masks_c.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The committed `_masks_c.c`, compiled with setuptools into a temporary
    directory and loaded from there, so the suite exercises the compiled
    kernel without building anything under `src/`.  Skips when no C
    compiler works."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import CCompilerError, PlatformError

    out = tmp_path_factory.mktemp("masks_c")
    ext = Extension("_masks_c", [str(MASKS_C_SOURCE)], extra_compile_args=["-O2"])
    cmd = build_ext(Distribution({"name": "masks_c", "ext_modules": [ext]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "obj")
    cmd.ensure_finalized()
    try:
        cmd.run()
    except (CCompilerError, PlatformError) as exc:
        pytest.skip(f"no working C compiler to build _masks_c.c: {exc}")
    spec = importlib.util.spec_from_file_location(
        "powmon._kernels._masks_c", cmd.get_ext_fullpath("_masks_c")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
