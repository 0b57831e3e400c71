"""Pinned outputs of the codegen path: k-way mappings, k_i, trace and image digests.

Every value here is an output of the program as it stands.  The partitioner,
the schedule builder, the cycle engines and config synthesis may be rewritten
for speed, but a rewrite that moves one of these pins changes behaviour: the
same code, seed and torus must give the same assignment, the same cycle
trace and the same configuration image, byte for byte.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from nocldpc.codes import build_check_graph, compute_layers, load_code
from nocldpc.codes.randomgen import random_code
from nocldpc.configgen import gen_config
from nocldpc.mapper import partition_kway, serving_order
from nocldpc.nocsim import Topology, build_schedule, simulate_iteration

SEEDS = (0, 20250808)
BUNDLED = ("wimax_2304_1152", "wimax_576_288", "wifi_1944_486", "random_1057_244")
# label -> (n, m, row degree, code seed, layered, p)
RANDOM = {
    "r240": (240, 120, 6, 11, True, 7),
    "r500": (500, 200, 5, 12, False, 9),
    "r150": (150, 100, 3, 13, True, 16),
}
C06 = (("wimax_2304_1152", 5), ("wimax_576_288", 5), ("wifi_1944_486", 4), ("random_1057_244", 5))

# (code, p, seed) -> sha256 of the int32 assignment bytes
ASSIGNMENT_SHA = {
    ("r150", 16, 0): "9a6f8d1bf3fabfb4cf2a66f34ea74952b38d97604062640a7f29318946404979",
    ("r150", 16, 20250808): "801f5c87b7f7454c364414b431f7c34ae5e9d081fba7c42ad09087f0fc72c300",
    ("r240", 7, 0): "6cc6a6cb284df88e0123015f633bc39c6370c6e7fa8d6eb18a0a158b10f75258",
    ("r240", 7, 20250808): "ba6352851907734999edbd9cdf7bc18be8f2395796c7ccfca11037d318621db0",
    ("r500", 9, 0): "8b82294dc83962ebc73a0b84cb23ebe42f980e1c8d5117dbc8477019be8c5edb",
    ("r500", 9, 20250808): "6b27c6caffd99f81ad2f9001b0fcf067e1b7298dbeee901eca58321a0fea787e",
    ("random_1057_244", 4, 0): "0148b3b2d5421ba983b934e353a126f087286925effc669a036d69a5d2177fa7",
    ("random_1057_244", 4, 20250808): "5012e774571ba6e9a4c1bbfc95743506b93c393ddd6bd240a0adf0d45a0fe9cc",
    ("random_1057_244", 16, 0): "2c9519b42cf68902f242dd6ba2717d2e8ef6d6642ef4a1f1e0b4ba8114e09a05",
    ("random_1057_244", 16, 20250808): "94370301f3d974184a5ce81c2e0b66a3f89cc34424cdd43d18edafbec6bc7689",
    ("random_1057_244", 25, 0): "1d954f2b96449a4da42ba0c5befa34de6114d546b0b8b4b12190e8c622127140",
    ("random_1057_244", 25, 20250808): "470e50529807ee60b114fb7d04c83027e2009bfe606134899647b8291ccedb84",
    ("wifi_1944_486", 4, 0): "38fb0438500fc71ff3a1bada59df64e2bbd3100b565dde8336ce238c26220ff2",
    ("wifi_1944_486", 4, 20250808): "61df74d644b883206141cb2aecacc2160bcbfee2e9e75c5fdd0c36304e2081d8",
    ("wifi_1944_486", 16, 0): "5ceefc6bd3e80f3b7336721d11c546a35fef55520b3bf1ca6a5065e367f081b7",
    ("wifi_1944_486", 16, 20250808): "2b605892ad2e43ca512004e096083b55d907704163066112148c3c2233cb3f70",
    ("wifi_1944_486", 25, 0): "a5b0b4ae51fd18540b4a763eab7debc716890c9145a883bf67eba1a7d411bb87",
    ("wifi_1944_486", 25, 20250808): "6ca282bfc961c4d9a8f3eaea9e1291df04b082e9930510883b372f857f2ab60e",
    ("wimax_2304_1152", 4, 0): "27c42e12905004a72197a6401b5e8ac51ed38ff381229db53563bdb25c5cd666",
    ("wimax_2304_1152", 4, 20250808): "08d263262f09057cc77f80c61a8b0537a8b36f49def6d2a75a3d3fbdef1f5bda",
    ("wimax_2304_1152", 16, 0): "7b8a778b6a3e3ea9ec359b76f61f4ffdf24dece922c1d73a89501e71a8835687",
    ("wimax_2304_1152", 16, 20250808): "1f632d0d005af54ebb0ef431c3309fdaeafde13b2d1428187c6faa5674185aaa",
    ("wimax_2304_1152", 25, 0): "fd2f27be57bf8e5ab301e2cb64e5406c9f9bd075864ac165ba7507dd6aa3cfb3",
    ("wimax_2304_1152", 25, 20250808): "613c5ced7c025070c9357251ccbfb0619bad632a2ace3175930578dc11329551",
    ("wimax_576_288", 4, 0): "daddc5eb6483de6dc98008db933d9d97c4489138dbf31ca0e11ee4a3cc1fc5b9",
    ("wimax_576_288", 4, 20250808): "a0823560e3bffe4cd90cef59c365732d895668c9ca0c294a0ed3d9b6996e9e53",
    ("wimax_576_288", 16, 0): "71b917f9b6ba3baabdd70c22655c9344f00e625f1167627415d98ff1118bd235",
    ("wimax_576_288", 16, 20250808): "e8d260d4799cbb4b9459f3f737f4f0568f62bb160f2f7123e7be4401d70f4285",
    ("wimax_576_288", 25, 0): "39ba5fd67a1a2b15832d342a3ca51ba0ce4deb4b3351b6069b9cc4c65179f57d",
    ("wimax_576_288", 25, 20250808): "e043d4fbea4bb1652e719b919a87e0efbff2da181d14af4383b39b7f77de52ac",
}
# (code, seed) -> (k_i, trace content digest, config image digest)
PIPELINE = {
    ("random_1057_244", 7): (
        470,
        "8307c545c4e8b5f2ff1e451cc3eefc52adbb119af7ebf7397453574263baaba0",
        "cb2cce93a5f96704925e32d5ea0a679335e0d4ef1d2df3bcba2e6a0c8fda6cf5",
    ),
    ("random_1057_244", 20250808): (
        481,
        "4686bb49ec521f6e72ce5f03824ed72dbb8608347a69c2d2c2ca741aa657a654",
        "43826f9a4ac7ea285ba86b307bf833885a833c0b7bae4733f88a9602adf3406d",
    ),
    ("wifi_1944_486", 7): (
        808,
        "bc51d2c66a22927a63fdd255cff38e71f2beb8cc43efea318e16138b7b8693b0",
        "42cf5d98816f87b4ba340ac68e8a30854f2384259fa8fd3f96e410333f15c9e9",
    ),
    ("wifi_1944_486", 20250808): (
        825,
        "f4cf7e6175fa68ed8aedc39e3ae038c140996a068fadcbd137a3772a0b7219e0",
        "63361d82f3b3cac3decd78ccab6daed090d38ac74a16dc1d8542bf21b4340132",
    ),
    ("wimax_2304_1152", 7): (
        514,
        "01cd91dbd691a6123d899728e078946b23a2626c4abd993d0d44b9cee56f4768",
        "f5a823c134c11a2aca3b64c6d6cb7f4796c47f1676ea080db5ad538dad06afd1",
    ),
    ("wimax_2304_1152", 20250808): (
        483,
        "ced9888b968590b66dfe6e351848c6e4f74987a2811dc7dadebe9a51ebc68d86",
        "593042c7d2aba274926b5edbdb3e611d895434dafc4e4c620b59d12d60af92df",
    ),
    ("wimax_576_288", 7): (
        294,
        "a4743c56ca031907ac272bc3b5cf053cd97bf610d129803ec8bbcdec54cb66ef",
        "1f3ab00f1212c842d987dee65c74c98892c52ef3c1b63e81e82979c66fced98b",
    ),
    ("wimax_576_288", 20250808): (
        305,
        "815de7a5bc3989bf301dd1ed175c7cc54dc9d33276565822ccf033dea7dfe801",
        "0a2f91274000f008bd56333f0e3edc83fbad9f2ea4c0d6a2f10940cdbf694d7d",
    ),
}


@lru_cache(maxsize=None)
def _code(name: str):
    if name in RANDOM:
        n, m, d, seed, layered, _ = RANDOM[name]
        h = random_code(n, m, d, seed=seed, label=name)
        if layered:
            compute_layers(h)
    else:
        h = load_code(name)
    return h, build_check_graph(h)


@lru_cache(maxsize=None)
def _mapping(name: str, p: int, seed: int):
    return partition_kway(_code(name)[1], p, seed)


def _assignment_sha(mapping) -> str:
    assert mapping.assignment.dtype == np.int32
    return hashlib.sha256(mapping.assignment.tobytes()).hexdigest()


def _pipeline(name: str, side: int, seed: int):
    h = _code(name)[0]
    m = _mapping(name, side * side, seed)
    mapping = type(m)(p=m.p, assignment=m.assignment.copy())
    serving_order(h, mapping)
    trace = simulate_iteration(Topology(side), build_schedule(h, mapping), seed=seed, label=h.label)
    config = gen_config(trace, mapping, h)
    return trace.k_i, trace.content_digest(), config.digest


@pytest.mark.parametrize("name,p,seed", sorted(ASSIGNMENT_SHA))
def test_partition_kway_assignment_pinned(name, p, seed):
    assert _assignment_sha(_mapping(name, p, seed)) == ASSIGNMENT_SHA[(name, p, seed)]


@pytest.mark.parametrize("name,seed", sorted(PIPELINE))
def test_c06_pipeline_pinned(name, seed):
    side = dict(C06)[name]
    assert _pipeline(name, side, seed) == PIPELINE[(name, seed)]
