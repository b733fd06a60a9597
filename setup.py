"""Build script: compiles the optional bitmask kernel extension.

The extension is built from the committed C file `_masks_c.c`, which Cython
generated from `_masks_c.pyx`; building needs a C compiler but not Cython.
The package is fully functional without the extension (a pure-Python kernel
is selected at import when the compiled one is absent), so a failing C
toolchain only costs speed, never the build.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing: fall back to pure Python
            warnings.warn(f"skipping compiled kernel ({exc}); using the pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name} ({exc}); using the pure-Python fallback")


setup(
    ext_modules=[
        Extension(
            "powmon._kernels._masks_c",
            ["src/powmon/_kernels/_masks_c.c"],
            extra_compile_args=["-O2"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
