"""Setup shim.

The execution environment has an older setuptools without the ``wheel``
package, so PEP 517 editable installs fail.  This file lets
``pip install -e . --no-build-isolation --no-use-pep517`` (legacy
``setup.py develop``) work offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Weakly-supervised Temporal Path Representation Learning with "
        "Contrastive Curriculum Learning (WSCCL) - ICDE 2022 reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
)
