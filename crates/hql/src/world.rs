//! What an engine publishes.
//!
//! A [`World`] is a [`Catalog`] — every named domain, relation and live
//! view an HQL statement can see — as the concurrent
//! [`Engine`](crate::engine::Engine) publishes it through a
//! [`SnapshotCell`]: readers hold an `Arc<World>` and never lock; the
//! single writer clones it (constant work: the catalog's maps are
//! persistent), applies its statement's one mutation through
//! [`Catalog::apply_mutation_to`] and publishes the copy as the next
//! epoch. Named state, views included, changes nowhere else.
//!
//! A world dereferences to its catalog. The one thing it adds is the
//! conversion to and from the persistence [`Image`], which `hrdm-core`
//! cannot name.

use std::ops::{Deref, DerefMut};

use hrdm_core::prelude::*;
use hrdm_persist::Image;

/// The state an HQL statement executes against: a [`Catalog`].
#[derive(Clone, Default)]
pub struct World(Catalog);

impl Deref for World {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

impl DerefMut for World {
    fn deref_mut(&mut self) -> &mut Catalog {
        &mut self.0
    }
}

impl From<Catalog> for World {
    /// Publish a catalog (e.g. a recovered one) as it stands.
    fn from(catalog: Catalog) -> World {
        World(catalog)
    }
}

impl World {
    /// Snapshot the world as a persistence image: the catalog's own
    /// handles, no graph, tuple or view copied.
    pub fn to_image(&self) -> Image {
        Image::from_catalog(&self.0)
    }

    /// Build a world from a persistence image, taking over its handles.
    pub fn from_image(image: Image) -> World {
        World(image.into_catalog())
    }
}
