"""Deep reference picture generation for P-frame inter prediction.

A desk-scale pipeline: train a dilated-inception convolutional generator that
maps the previous decoded frame to a prediction of the current frame, swap it
into the reference list of a quarter-pel codec proxy, and quantify the effect
with PSNR, SSIM, and BD-rate.
"""

from .codec import (
    SearchConfig,
    encode_frame_proxy,
    encode_sequence,
    generated,
    motion_search,
    previous,
    rd_sweep,
)
from .config import RunConfig, load_run_config
from .errors import (
    ConfigError,
    DeepRefError,
    FormatError,
    NonFiniteError,
    ShapeMismatchError,
)
from .flow import ExtractionConfig, extract_pairs, lucas_kanade_mv, pair_dtype, round_mv_topleft
from .generator import (
    GeneratorNet,
    ModelConfig,
    build_network,
    dump_feature_maps,
    generate_reference,
    load_weights,
    save_weights,
)
from .interp import LUMA_FILTERS, MotionVectorQ, interpolate_block
from .metrics import RDPoint, bd_rate, psnr, ssim
from .synthetic import SinusoidTexture, pan_zoom_sequence
from .training import TrainConfig, block_size_sweep, lr_schedule, mse_loss, train
from .video_io import read_sequence, write_y4m

__version__ = "0.1.0"
