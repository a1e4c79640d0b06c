import pytest

from lacasse import _kernels_py


@pytest.fixture(params=[_kernels_py], ids=["py"])
def kernels(request):
    """The kernel module; the ``py`` id keeps the tests' names stable."""
    return request.param
