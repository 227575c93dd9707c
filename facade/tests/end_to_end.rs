//! Full-pipeline integration: data generation → loading → description →
//! model → simulation → physical execution, exercised through the facade
//! crate exactly as a downstream user would.

use buffered_rtrees::buffer::LruPolicy;
use buffered_rtrees::datagen::{centers, SyntheticRegion, TigerLike};
use buffered_rtrees::index::BulkLoader;
use buffered_rtrees::model::{BufferModel, TreeDescription, Workload};
use buffered_rtrees::pager::{DiskRTree, MemStore};
use buffered_rtrees::sim::{QuerySampler, SimConfig, SimTree, Simulation};

#[test]
fn quickstart_pipeline() {
    let rects = SyntheticRegion::new(4_000).generate(42);
    let tree = BulkLoader::hilbert(100).load(&rects);
    tree.validate().expect("valid tree");
    let desc = TreeDescription::from_tree(&tree);
    let workload = Workload::uniform_region(0.1, 0.1);
    let model = BufferModel::new(&desc, &workload);

    let bufferless = model.expected_node_accesses();
    let b20 = model.expected_disk_accesses(20);
    let b40 = model.expected_disk_accesses(40);
    assert!(bufferless > b20, "buffering must reduce cost");
    assert!(b20 > b40, "more buffer, less cost");
    assert_eq!(model.expected_disk_accesses(desc.total_nodes()), 0.0);
}

#[test]
fn model_sim_disk_triangle_agrees() {
    // The same workload measured three ways must agree.
    let rects = SyntheticRegion::new(3_000).generate(1);
    let tree = BulkLoader::str_pack(50).load(&rects);
    let desc = TreeDescription::from_tree(&tree);
    let workload = Workload::uniform_point();
    let buffer = 30;

    let predicted = BufferModel::new(&desc, &workload).expected_disk_accesses(buffer);

    let sim = Simulation::new(SimConfig::new(buffer).batches(6, 4_000))
        .run(&SimTree::from_tree(&tree), &workload);

    let disk = DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new()).unwrap();
    let mut sampler = QuerySampler::new(&workload, 99);
    for _ in 0..4_000 {
        disk.query(&sampler.sample()).unwrap();
    }
    disk.reset_counters();
    let n = 12_000;
    for _ in 0..n {
        disk.query(&sampler.sample()).unwrap();
    }
    let physical = disk.physical_reads() as f64 / n as f64;

    let tol = 0.15;
    let sim_v = sim.disk_accesses_per_query;
    assert!(
        (predicted - sim_v).abs() <= tol * sim_v.max(0.2),
        "model {predicted:.3} vs sim {sim_v:.3}"
    );
    assert!(
        (physical - sim_v).abs() <= tol * sim_v.max(0.2),
        "physical {physical:.3} vs sim {sim_v:.3}"
    );
}

#[test]
fn data_driven_pipeline_on_skewed_data() {
    let rects = TigerLike::new(6_000).generate(5);
    let tree = BulkLoader::hilbert(50).load(&rects);
    let desc = TreeDescription::from_tree(&tree);

    let uniform = BufferModel::new(&desc, &Workload::uniform_point());
    let driven = BufferModel::new(&desc, &Workload::data_driven_point(centers(&rects)));

    // §5.4: on map data with empty regions, data-driven queries cost more.
    assert!(
        driven.expected_node_accesses() > uniform.expected_node_accesses(),
        "data-driven {} should exceed uniform {}",
        driven.expected_node_accesses(),
        uniform.expected_node_accesses()
    );
}

#[test]
fn facade_reexports_are_usable() {
    // Types from different subcrates compose through the facade.
    let p = buffered_rtrees::geom::Point::new(0.5, 0.5);
    let r = buffered_rtrees::geom::Rect::centered(p, 0.1, 0.1);
    assert!(r.contains_point(&p));
    let pool = buffered_rtrees::buffer::BufferPool::new(4, LruPolicy::new());
    assert_eq!(pool.capacity(), 4);
}

#[test]
fn description_text_round_trip_preserves_model_output() {
    // The interchange format must carry everything the model needs: a
    // description serialized to text and parsed back produces bit-identical
    // predictions.
    let rects = SyntheticRegion::new(3_000).generate(11);
    let tree = BulkLoader::hilbert(40).load(&rects);
    let desc = TreeDescription::from_tree(&tree);
    let parsed = TreeDescription::from_text(&desc.to_text()).expect("parse own output");
    let w = Workload::uniform_region(0.07, 0.03);
    let a = BufferModel::new(&desc, &w);
    let b = BufferModel::new(&parsed, &w);
    for buffer in [5usize, 50, 250] {
        assert_eq!(
            a.expected_disk_accesses(buffer).to_bits(),
            b.expected_disk_accesses(buffer).to_bits(),
            "round trip drifted at B={buffer}"
        );
    }
}

#[test]
fn knn_and_region_queries_compose() {
    // kNN is an extension; make sure it coexists with the facade and agrees
    // with a scan through the public API.
    let rects = SyntheticRegion::new(1_000).generate(13);
    let tree = BulkLoader::str_pack(20).load(&rects);
    let p = buffered_rtrees::geom::Point::new(0.4, 0.6);
    let nn = tree.nearest_neighbors(&p, 5);
    assert_eq!(nn.len(), 5);
    for w in nn.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
    // The nearest item's rect must intersect a query box sized to reach it.
    let reach = nn[0].distance.max(1e-6) * 2.0 + 0.02;
    let q = buffered_rtrees::geom::Rect::centered(p, reach, reach);
    assert!(tree.search(&q).contains(&nn[0].id));
}
