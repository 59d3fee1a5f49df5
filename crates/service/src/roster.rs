//! The default engine roster — every engine in the workspace, assembled
//! into one [`EngineRegistry`].
//!
//! This lives in the service crate (the lowest layer that depends on all
//! engine crates); the `mmjoin` facade re-exports both functions, so
//! `mmjoin::default_registry(..)` keeps working unchanged.

use mmjoin_api::EngineRegistry;
use mmjoin_baseline::fulljoin::{HashJoinEngine, SortMergeEngine, SystemXEngine};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_baseline::setintersect::SetIntersectEngine;
use mmjoin_baseline::star::HashDedupStarEngine;
use mmjoin_core::{JoinConfig, MmJoinEngine};
use mmjoin_scj::{ContainmentEngine, ScjAlgorithm};
use mmjoin_ssj::{SimilarityEngine, SsjAlgorithm};
use mmjoin_wcoj::WcojEngine;

/// The full engine roster on `threads` workers (engines without a
/// parallelism knob ignore it; `0` means "all available parallelism" —
/// see [`JoinConfig::effective_threads`]). MMJoin is registered first so
/// it leads every enumeration.
pub fn default_registry(threads: usize) -> EngineRegistry {
    let config = JoinConfig {
        threads,
        ..JoinConfig::default()
    };
    registry_with_config(&config)
}

/// The full engine roster, every configurable engine sharing `config` —
/// the single object that governs parallelism and all other execution
/// knobs.
pub fn registry_with_config(config: &JoinConfig) -> EngineRegistry {
    let mut expand = ExpandDedupEngine::parallel(config.effective_threads());
    if let Some(exec) = &config.executor {
        expand = expand.on_executor(std::sync::Arc::clone(exec));
    }
    let mut registry = EngineRegistry::new();
    registry
        .register(Box::new(MmJoinEngine::new(config.clone())))
        .register(Box::new(expand))
        .register(Box::new(WcojEngine))
        .register(Box::new(HashJoinEngine))
        .register(Box::new(SortMergeEngine))
        .register(Box::new(SystemXEngine))
        .register(Box::new(SetIntersectEngine))
        .register(Box::new(HashDedupStarEngine))
        .register(Box::new(SimilarityEngine::new(
            SsjAlgorithm::SizeAware,
            config.clone(),
        )))
        .register(Box::new(SimilarityEngine::new(
            SsjAlgorithm::SizeAwarePP(mmjoin_ssj::SizeAwarePPOpts::all()),
            config.clone(),
        )))
        .register(Box::new(ContainmentEngine::new(
            ScjAlgorithm::Pretti,
            config.clone(),
        )))
        .register(Box::new(ContainmentEngine::new(
            ScjAlgorithm::LimitPlus { limit: 2 },
            config.clone(),
        )))
        .register(Box::new(ContainmentEngine::new(
            ScjAlgorithm::PieJoin,
            config.clone(),
        )));
    registry
}
