"""
Score one architecture without training it
===========================================

A randomly initialized ReLU network chops its input space into linear
regions.  Feed it a batch, record which units fire for which input, and
two inputs that land in different regions get different binary codes.
The log-determinant of the code-agreement kernel is the score: higher
means the untrained network already separates the batch more finely.
"""

import numpy as np

from naswot import (
    NetworkConfig,
    build_network,
    count_relu_units,
    forward_collect_codes,
    hamming_kernel,
    logdet_score,
    parse_arch,
    random_normal_batch,
)

# the arch string names the op on each of the 6 cell edges
arch = parse_arch(
    "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+|avg_pool_3x3~0|skip_connect~1|nor_conv_3x3~2|"
)
print("architecture:", arch)

# "desk" config is a small stand-in skeleton: 8-channel stem, one cell
# per stage, 8x8 inputs; it runs in milliseconds on a laptop CPU
config = NetworkConfig.desk()
net = build_network(arch, config)
print("rectified linear units:", count_relu_units(net))

# one standardized random batch; 16 inputs -> a 16x16 kernel
batch = random_normal_batch((16, 3, 8, 8), seed=0)
codes = forward_collect_codes(net, batch)
kernel = hamming_kernel(codes)
print("kernel corner (agreement counts):")
print(kernel[:4, :4])

score = logdet_score(kernel)
print("score:", score.value, f"({score.status.name})")

# a cell of nothing but zero-ops gives every input the same code, the
# kernel loses rank, and the score is flagged instead of faked
dead = parse_arch("|none~0|+|none~0|none~1|+|none~0|none~1|none~2|")
dead_score = logdet_score(hamming_kernel(forward_collect_codes(build_network(dead, config), batch)))
print("all-zero cell:", dead_score.status.name)
