"""Setup shim for environments without the `wheel` package.

`pip install -e .` needs wheel for PEP-517 editable installs; this shim
lets `python setup.py develop` work offline as a fallback.
"""

from setuptools import setup

setup(install_requires=["numpy"])
